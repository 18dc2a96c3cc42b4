type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse of string

let max_depth = 512

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Parse (Printf.sprintf "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "dangling escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "malformed \\u escape");
              pos := !pos + 4
          | c -> fail (Printf.sprintf "unsupported escape \\%c" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  (* [items close one] reads [one]s up to [close], after the opener *)
  let items close one =
    skip_ws ();
    if peek () = close then begin
      advance ();
      []
    end
    else begin
      let acc = ref [] in
      let rec go () =
        acc := one () :: !acc;
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            go ()
        | c when c = close -> advance ()
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go ();
      List.rev !acc
    end
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        Obj
          (items '}' (fun () ->
               expect '"';
               let key = string_body () in
               expect ':';
               (key, value (depth + 1))))
    | '[' ->
        advance ();
        Arr (items ']' (fun () -> value (depth + 1)))
    | '"' ->
        advance ();
        Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> Num (number ())
    | _ -> fail "unexpected character"
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field key = function Obj fields -> List.assoc_opt key fields | _ -> None
