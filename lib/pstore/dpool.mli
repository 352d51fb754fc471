(** A tiny persistent worker pool over OCaml 5 stdlib domains.

    One process-wide pool backs every parallel maintenance pass in the
    store (sharded open, stabilise and GC mark).  Workers are spawned
    lazily, parked between jobs, and joined at process exit; the pool
    never exceeds [Domain.recommended_domain_count () - 1] workers (the
    calling domain participates) unless the limit is raised explicitly. *)

val run : int -> (int -> unit) -> unit
(** [run n f] executes [f 0 .. f (n-1)], in parallel when the pool has
    workers and sequentially otherwise (limit 1, nested call, or after
    {!shutdown}).  Returns when every task has finished.  If tasks
    raised, the first exception recorded is re-raised in the caller;
    the remaining tasks still run to completion.  Not reentrant: a task
    calling [run] gets the sequential fallback. *)

val parallelism : unit -> int
(** The effective pool limit: [PSTORE_DOMAINS] if set and >= 1, else
    [Domain.recommended_domain_count ()], unless {!set_limit} overrode
    it.  Total parallelism including the caller. *)

val set_limit : int -> unit
(** Override the pool limit (tests force > 1 to exercise true
    cross-domain interleavings on small machines).  Already-spawned
    workers are kept even if the limit shrinks below their count.
    @raise Invalid_argument if the limit is < 1. *)

val shutdown : unit -> unit
(** Stop and join all workers.  Registered via [at_exit]; subsequent
    {!run} calls fall back to sequential execution. *)
