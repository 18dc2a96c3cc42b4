let mem x a =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Array.length a do
    found := a.(!i) = x;
    incr i
  done;
  !found
