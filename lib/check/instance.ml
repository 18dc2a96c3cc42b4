module B = Vod_graph.Bipartite
module Csr = Vod_graph.Csr

type t = {
  n_left : int;
  n_right : int;
  right_cap : int array;
  adj : int array array;
}

let normalise_row row =
  let row = Array.copy row in
  Array.sort compare row;
  let out = ref [] in
  Array.iteri (fun i r -> if i = 0 || row.(i - 1) <> r then out := r :: !out) row;
  Array.of_list (List.rev !out)

let make ~n_left ~n_right ~right_cap ~adj =
  if n_left < 0 || n_right < 0 then invalid_arg "Instance.make: negative size";
  if Array.length right_cap <> n_right then
    invalid_arg "Instance.make: right_cap length mismatch";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Instance.make: negative capacity")
    right_cap;
  if Array.length adj <> n_left then invalid_arg "Instance.make: adjacency length mismatch";
  Array.iter
    (Array.iter (fun r ->
         if r < 0 || r >= n_right then invalid_arg "Instance.make: neighbour out of range"))
    adj;
  { n_left; n_right; right_cap = Array.copy right_cap; adj = Array.map normalise_row adj }

let of_bipartite b =
  let csr = B.csr b in
  let row_start = Csr.row_start csr and col = Csr.col csr in
  {
    n_left = B.n_left b;
    n_right = B.n_right b;
    right_cap = B.right_cap b;
    (* fresh copies of the CSR rows, already sorted and deduplicated *)
    adj =
      Array.init (B.n_left b) (fun l ->
          Array.sub col row_start.(l) (row_start.(l + 1) - row_start.(l)));
  }

let to_bipartite t =
  B.create ~n_left:t.n_left ~n_right:t.n_right ~right_cap:t.right_cap ~fill:(fun l emit ->
      Array.iter emit t.adj.(l))

let edge_count t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.adj
let total_slots t = Array.fold_left ( + ) 0 t.right_cap

let equal a b =
  a.n_left = b.n_left && a.n_right = b.n_right && a.right_cap = b.right_cap
  && a.adj = b.adj

(* ------------------------------------------------------------------ *)
(* Repro-file format                                                   *)
(* ------------------------------------------------------------------ *)

let magic = "vod-check bipartite 1"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "left %d\n" t.n_left);
  Buffer.add_string buf (Printf.sprintf "right %d\n" t.n_right);
  Buffer.add_string buf "cap";
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %d" c)) t.right_cap;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "edges %d\n" (edge_count t));
  Array.iteri
    (fun l row ->
      Array.iter (fun r -> Buffer.add_string buf (Printf.sprintf "%d %d\n" l r)) row)
    t.adj;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s |> List.map String.trim in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ints_of line = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  match lines with
  | m :: rest when m = magic -> (
      let parse_kv key = function
        | line :: rest -> (
            match ints_of line with
            | [ k; v ] when k = key -> (
                match int_of_string_opt v with
                | Some v -> Ok (v, rest)
                | None -> err "malformed %s line: %s" key line)
            | _ -> err "expected '%s <int>', got: %s" key line)
        | [] -> err "unexpected end of file before %s" key
      in
      let ( let* ) = Result.bind in
      let* n_left, rest = parse_kv "left" rest in
      let* n_right, rest = parse_kv "right" rest in
      let* () =
        if n_left < 0 || n_right < 0 then
          err "negative size: left %d, right %d" n_left n_right
        else if n_left > Sys.max_array_length then
          err "left %d exceeds the largest array (%d)" n_left Sys.max_array_length
        else Ok ()
      in
      let* caps, rest =
        match rest with
        | line :: rest when String.length line >= 3 && String.sub line 0 3 = "cap" -> (
            let words = ints_of (String.sub line 3 (String.length line - 3)) in
            let caps = List.filter_map int_of_string_opt words in
            if List.length caps <> List.length words then err "malformed cap line"
            else Ok (Array.of_list caps, rest))
        | _ -> err "expected cap line"
      in
      let* n_edges, rest = parse_kv "edges" rest in
      let rec read_edges acc k = function
        | rest when k = 0 -> Ok (List.rev acc, rest)
        | line :: rest -> (
            match List.filter_map int_of_string_opt (ints_of line) with
            | [ l; r ] -> read_edges ((l, r) :: acc) (k - 1) rest
            | _ -> err "malformed edge line: %s" line)
        | [] -> err "unexpected end of file in edge list"
      in
      let* edges, rest = read_edges [] n_edges rest in
      match rest with
      | "end" :: _ -> (
          match
            let adj = Array.make n_left [] in
            List.iter
              (fun (l, r) ->
                if l < 0 || l >= n_left then failwith "edge left endpoint out of range";
                adj.(l) <- r :: adj.(l))
              edges;
            make ~n_left ~n_right ~right_cap:caps
              ~adj:(Array.map Array.of_list adj)
          with
          | t -> Ok t
          | exception (Invalid_argument m | Failure m) -> Error m
          | exception Out_of_memory -> err "left %d: cannot allocate its rows" n_left)
      | line :: _ -> err "expected 'end', got: %s" line
      | [] -> err "missing 'end' line")
  | m :: _ -> err "bad magic line: %s" m
  | [] -> Error "empty repro file"

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~path =
  if Sys.file_exists path && Sys.is_directory path then Error (path ^ ": is a directory")
  else
    match open_in path with
    | exception Sys_error m -> Error m
    | ic -> (
        match
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | s -> of_string s
        | exception Sys_error m -> Error (path ^ ": " ^ m))
