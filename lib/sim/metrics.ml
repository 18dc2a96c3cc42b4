type t = {
  rounds : int;
  total_demands : int;
  total_served : int;
  total_unserved : int;
  failed_rounds : int;
  first_failure : int option;
  peak_active : int;
  mean_active : float;
  cache_share : float;
  peak_busy : int;
}

let summarise reports =
  let rounds = List.length reports in
  let total_demands = ref 0
  and total_served = ref 0
  and total_unserved = ref 0
  and failed_rounds = ref 0
  and first_failure = ref None
  and peak_active = ref 0
  and sum_active = ref 0
  and cache_served = ref 0
  and peak_busy = ref 0 in
  List.iter
    (fun r ->
      total_demands := !total_demands + r.Engine.new_demands;
      total_served := !total_served + r.Engine.served;
      total_unserved := !total_unserved + r.Engine.unserved;
      if r.Engine.unserved > 0 then begin
        incr failed_rounds;
        if !first_failure = None then first_failure := Some r.Engine.time
      end;
      peak_active := max !peak_active r.Engine.active_requests;
      sum_active := !sum_active + r.Engine.active_requests;
      cache_served := !cache_served + r.Engine.served_from_cache;
      peak_busy := max !peak_busy r.Engine.busy_boxes)
    reports;
  {
    rounds;
    total_demands = !total_demands;
    total_served = !total_served;
    total_unserved = !total_unserved;
    failed_rounds = !failed_rounds;
    first_failure = !first_failure;
    peak_active = !peak_active;
    mean_active =
      (if rounds = 0 then 0.0 else float_of_int !sum_active /. float_of_int rounds);
    cache_share =
      (if !total_served = 0 then 0.0
       else float_of_int !cache_served /. float_of_int !total_served);
    peak_busy = !peak_busy;
  }

(* Header and rows both derive from [Engine.report_fields], so the CSV
   schema cannot drift from the report type. *)
let to_csv reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (List.map fst Engine.report_fields));
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf
        (String.concat ","
           (List.map (fun (_, get) -> string_of_int (get r)) Engine.report_fields));
      Buffer.add_char buf '\n')
    reports;
  Buffer.contents buf

let all_served t = t.total_unserved = 0

let pp ppf t =
  Format.fprintf ppf
    "{rounds=%d; demands=%d; served=%d; unserved=%d; failed_rounds=%d; cache=%.1f%%}"
    t.rounds t.total_demands t.total_served t.total_unserved t.failed_rounds
    (100.0 *. t.cache_share)
