(** The unified typed failure for salvage reads.

    Every [try_]-style accessor in the store stack — {!Store.Session.try_get},
    {!Store.Session.try_field}, and the registry's [try_get_link] above — returns
    [('a, Failure.t) result] with this one variant, so callers render
    broken-link placeholders with a single match instead of juggling
    per-module error shapes. *)

type t =
  | Quarantined of {
      oid : Oid.t;
      reason : string;
    }  (** the object is in the quarantine set (corrupt or undecodable) *)
  | Dangling of Oid.t  (** the oid has no live heap entry *)
  | Collected of int
      (** a registry uid whose weakly-held program was garbage collected *)
  | Bad_index of {
      container : string;  (** human description, e.g. ["hyper-program 3"] *)
      index : int;
    }  (** an index with no entry in an otherwise healthy container *)

exception Shard_degraded of {
  shard : int;
  state : string;  (** ["degraded"] or ["offline"] *)
  reason : string;
}
(** A write was routed to a shard that is not healthy.  The shard is
    read-only until [Store.repair] promotes it; every other shard keeps
    full service.  Raised by the mutating store operations
    ([set_field], [set_root], [alloc_*], ...) and by [stabilise] when a
    structurally-required full compaction cannot proceed while a shard
    is down. *)

exception Commit_conflict of {
  session : int;  (** the losing session's id *)
  oids : Oid.t list;  (** clashing object ids, ascending *)
  keys : string list;  (** clashing root/blob names, sorted *)
}
(** Raised by [Store.Session.commit] when first-committer-wins conflict
    detection finds that part of this session's write set was committed
    by someone else after the session's snapshot was pinned.  The losing
    session is aborted before the raise — none of its buffered writes
    reached the heap or the journal — so the caller retries by opening a
    fresh session and re-applying its intent against the new state. *)

val describe : t -> string
(** One-line human rendering, e.g.
    ["quarantined @7: checksum mismatch"]. *)
