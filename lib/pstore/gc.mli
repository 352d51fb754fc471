(** Reachability-based garbage collection with weak-reference semantics.

    Weak cells are traced as heap objects, but their targets are not: a
    live weak cell whose target is otherwise unreachable is cleared to
    [Null] and the target is swept. *)

type stats = {
  live : int;  (** objects remaining after the sweep *)
  swept : int;  (** objects reclaimed *)
  weak_cleared : int;  (** weak cells whose target died this cycle *)
}

val pp_stats : Format.formatter -> stats -> unit

val collect :
  nshards:int ->
  shard_of:(Oid.t -> int) ->
  ?extra_roots:Oid.t list ->
  Heap.t ->
  Roots.t ->
  stats * Oid.Set.t array
(** Run a full mark–sweep cycle from the named roots plus [extra_roots]
    (e.g. objects referenced by a running VM), over a store whose oids
    [shard_of] assigns to [nshards] shards.  The mark is one trace from
    that seed.  Also returns each shard's remembered set — the live oids
    in that shard referenced from a live object in {e another} shard —
    which is what lets later sweeps stay per-shard. *)
