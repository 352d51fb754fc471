(** Vestigial pass-through, kept only because the frozen benchmark
    (bench/hpbench/w_compile.ml) names it; ROADMAP item 5 deletes it.
    Nothing in the library, the CLI or the tests calls it. *)

type stats = { hits : int; misses : int }

val stats : Minijava.Rt.t -> stats
(** Always zero: there is no compile cache. *)

val cached : Minijava.Rt.t -> string list -> compile:(unit -> 'a) -> 'a
(** [cached vm sources ~compile] is [compile ()]. *)
