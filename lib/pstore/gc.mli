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

val reachable : ?extra_roots:Oid.t list -> Heap.t -> Roots.t -> Oid.Set.t
(** The set of strongly reachable oids, without sweeping. *)

val collect_sharded :
  nshards:int ->
  shard_of:(Oid.t -> int) ->
  ?extra_roots:Oid.t list ->
  Heap.t ->
  Roots.t ->
  stats * Oid.Set.t array
(** Run a full mark–sweep cycle from the named roots plus [extra_roots]
    (e.g. objects referenced by a running VM), over a store whose oids
    [shard_of] assigns to [nshards] shards.  The mark phase runs per
    shard on the domain pool: each shard traces the closure of its own
    objects and exports cross-shard references to the owning shard, in
    rounds, until no new oid crosses a boundary.  Also returns each
    shard's remembered set — the live oids in that shard referenced from
    {e other} shards — which is what lets later sweeps stay per-shard.
    Weak-clear and sweep run on the calling domain (they mutate the
    shared heap).  With one shard the mark is one sequential trace. *)
