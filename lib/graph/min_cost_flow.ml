open Vod_util

(* Paired-arc residual representation (arc [2i] is the [i]-th edge,
   arc [2i + 1] its reverse), with a per-arc cost (reverse arcs carry
   the negated cost). *)
type t = {
  n : int;
  first : int array;
  next : int Vec.t;
  dst : int Vec.t;
  cap : int Vec.t;
  cost : int Vec.t;
  original_cap : int Vec.t;
}

let create n =
  if n < 0 then invalid_arg "Min_cost_flow.create: negative node count";
  {
    n;
    first = Array.make (max n 1) (-1);
    next = Vec.create ();
    dst = Vec.create ();
    cap = Vec.create ();
    cost = Vec.create ();
    original_cap = Vec.create ();
  }

let add_arc t ~src ~dst ~cap ~cost =
  let a = Vec.length t.dst in
  Vec.push t.dst dst;
  Vec.push t.cap cap;
  Vec.push t.original_cap cap;
  Vec.push t.cost cost;
  Vec.push t.next t.first.(src);
  t.first.(src) <- a;
  a

let add_edge t ~src ~dst ~cap ~cost =
  if cap < 0 then invalid_arg "Min_cost_flow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Min_cost_flow.add_edge: endpoint out of range";
  let a = add_arc t ~src ~dst ~cap ~cost in
  let (_ : int) = add_arc t ~src:dst ~dst:src ~cap:0 ~cost:(-cost) in
  a

let flow t a = Vec.get t.original_cap a - Vec.get t.cap a

let solve t ~src ~sink =
  if src < 0 || src >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Min_cost_flow.solve: endpoint out of range";
  if src = sink then invalid_arg "Min_cost_flow.solve: src = sink";
  let big = max_int / 4 in
  let dist = Array.make t.n big in
  let in_queue = Array.make t.n false in
  let pred_arc = Array.make t.n (-1) in
  let total_flow = ref 0 and total_cost = ref 0 in
  (* SPFA (queue-based Bellman-Ford) over the residual graph. *)
  let shortest_path () =
    Array.fill dist 0 t.n big;
    Array.fill pred_arc 0 t.n (-1);
    dist.(src) <- 0;
    let queue = Queue.create () in
    Queue.add src queue;
    in_queue.(src) <- true;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      in_queue.(v) <- false;
      let a = ref t.first.(v) in
      while !a >= 0 do
        let arc = !a in
        if Vec.get t.cap arc > 0 then begin
          let w = Vec.get t.dst arc in
          let nd = dist.(v) + Vec.get t.cost arc in
          if nd < dist.(w) then begin
            dist.(w) <- nd;
            pred_arc.(w) <- arc;
            if not in_queue.(w) then begin
              in_queue.(w) <- true;
              Queue.add w queue
            end
          end
        end;
        a := Vec.get t.next arc
      done
    done;
    dist.(sink) < big
  in
  (* source of each arc a: the destination of its paired reverse arc *)
  let arc_src a = Vec.get t.dst (a lxor 1) in
  while shortest_path () do
    (* bottleneck along the predecessor chain *)
    let bottleneck = ref max_int in
    let v = ref sink in
    while !v <> src do
      let a = pred_arc.(!v) in
      bottleneck := min !bottleneck (Vec.get t.cap a);
      v := arc_src a
    done;
    let v = ref sink in
    while !v <> src do
      let a = pred_arc.(!v) in
      Vec.set t.cap a (Vec.get t.cap a - !bottleneck);
      Vec.set t.cap (a lxor 1) (Vec.get t.cap (a lxor 1) + !bottleneck);
      total_cost := !total_cost + (!bottleneck * Vec.get t.cost a);
      v := arc_src a
    done;
    total_flow := !total_flow + !bottleneck
  done;
  (!total_flow, !total_cost)
