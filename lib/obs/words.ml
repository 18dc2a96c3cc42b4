let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let spent f =
  let overhead =
    let w0 = allocated () in
    allocated () -. w0
  in
  let w0 = allocated () in
  let result = f () in
  (result, allocated () -. w0 -. overhead)
