(* Vestigial: every compile now runs the compiler.  Only the frozen
   benchmark (bench/hpbench/w_compile.ml) still names this module;
   ROADMAP item 5 deletes it with that benchmark change. *)

type stats = { hits : int; misses : int }

let stats _ = { hits = 0; misses = 0 }
let cached _ _ ~compile = compile ()
