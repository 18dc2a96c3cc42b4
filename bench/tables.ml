(* The reproduction tables alone: runs experiments E1-E20 and prints
   only their tables, so that the output can be diffed against the
   committed test/experiments_golden.txt.

   Run with:  dune exec bench/tables.exe *)

let () = Experiments.run_all ()
