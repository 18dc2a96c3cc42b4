(* The annotations matter: without them [mem] compiles polymorphic, and
   every element costs a generic array read and a [caml_equal] call. *)
let mem (x : int) (a : int array) =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Array.length a do
    found := a.(!i) = x;
    incr i
  done;
  !found
