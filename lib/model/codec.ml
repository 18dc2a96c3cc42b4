let header = "vod-allocation v1"

let to_string alloc =
  let cat = Allocation.catalog alloc in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "catalog %d %d\n" (Catalog.videos cat) (Catalog.stripes_per_video cat));
  Buffer.add_string buf (Printf.sprintf "boxes %d\n" (Allocation.n_boxes alloc));
  for s = 0 to Catalog.total_stripes cat - 1 do
    if Allocation.replica_count alloc s > 0 then begin
      Buffer.add_string buf (string_of_int s);
      Buffer.add_char buf ':';
      Allocation.iter_holders alloc s (fun b ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int b));
      Buffer.add_char buf '\n'
    end
  done;
  Buffer.contents buf

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "empty input"
  | h :: rest when h = header -> (
      let parse_kv prefix line =
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then
          Some
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix)
            |> String.trim)
        else None
      in
      match rest with
      | cat_line :: boxes_line :: stripe_lines -> (
          let catalog_fields = parse_kv "catalog" cat_line in
          let boxes_fields = parse_kv "boxes" boxes_line in
          match (catalog_fields, boxes_fields) with
          | Some cf, Some bf -> (
              let ints s =
                String.split_on_char ' ' s
                |> List.filter (fun x -> x <> "")
                |> List.map int_of_string_opt
              in
              match (ints cf, ints bf) with
              | [ Some m; Some c ], [ Some n ] -> (
                  try
                    let catalog = Catalog.create ~m ~c in
                    let per_stripe = Array.make (Catalog.total_stripes catalog) [||] in
                    List.iter
                      (fun line ->
                        match String.index_opt line ':' with
                        | None -> failwith ("malformed stripe line: " ^ line)
                        | Some i -> (
                            let sid = String.sub line 0 i |> String.trim in
                            let rest =
                              String.sub line (i + 1) (String.length line - i - 1)
                            in
                            match int_of_string_opt sid with
                            | None -> failwith ("bad stripe id: " ^ sid)
                            | Some s ->
                                if s < 0 || s >= Array.length per_stripe then
                                  failwith ("stripe id out of range: " ^ sid);
                                let boxes =
                                  ints rest
                                  |> List.map (function
                                       | Some b -> b
                                       | None -> failwith ("bad box id in: " ^ line))
                                in
                                per_stripe.(s) <- Array.of_list boxes))
                      stripe_lines;
                    Ok (Allocation.of_replica_lists ~catalog ~n_boxes:n per_stripe)
                  with
                  | Failure msg -> Error msg
                  | Invalid_argument msg -> Error msg)
              | _ -> Error "malformed catalog/boxes header")
          | _ -> Error "expected 'catalog <m> <c>' then 'boxes <n>'")
      | _ -> Error "truncated input")
  | h :: _ -> Error (Printf.sprintf "bad header: %S" h)

let save alloc ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string alloc))

let load ~path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))
  | exception Sys_error msg -> Error msg

let fleet_header = "vod-fleet v1"

let fleet_to_string fleet =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf fleet_header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "%d %.17g %.17g\n" b.Box.id b.Box.upload b.Box.storage))
    fleet;
  Buffer.contents buf

let fleet_of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | h :: rows when h = fleet_header -> (
      try
        let boxes =
          List.map
            (fun line ->
              match
                String.split_on_char ' ' line |> List.filter (fun x -> x <> "")
              with
              | [ id; u; d ] -> (
                  match (int_of_string_opt id, float_of_string_opt u, float_of_string_opt d) with
                  | Some id, Some upload, Some storage -> Box.make ~id ~upload ~storage
                  | _ -> failwith ("malformed fleet line: " ^ line))
              | _ -> failwith ("malformed fleet line: " ^ line))
            rows
        in
        (* ids must be 0..n-1 in order for array indexing to hold *)
        List.iteri
          (fun i b ->
            if b.Box.id <> i then failwith "fleet ids must be dense and ordered")
          boxes;
        Ok (Array.of_list boxes)
      with
      | Failure msg -> Error msg
      | Invalid_argument msg -> Error msg)
  | h :: _ -> Error (Printf.sprintf "bad fleet header: %S" h)
  | [] -> Error "empty input"

let save_fleet fleet ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (fleet_to_string fleet))

let load_fleet ~path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> fleet_of_string (really_input_string ic (in_channel_length ic)))
  | exception Sys_error msg -> Error msg
