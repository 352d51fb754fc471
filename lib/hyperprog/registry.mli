(** The hyper-program registry (paper Figure 7).

    A password-protected, persistent vector of {e weak} references to
    every hyper-program that has been translated for compilation.  The
    weak references implement the paper's JDK 1.2 plan: a registered
    hyper-program is still garbage collected once no user references
    remain, but while it lives, compiled textual forms can retrieve its
    hyper-linked entities through {!get_link}. *)

open Pstore
open Minijava

val built_in_password : string
(** The password "built into the system" (paper Section 4.2). *)

val ensure : Rt.t -> Oid.t
(** Get or create the registry object. *)

val upgrade : Rt.t -> unit
(** Rewrite a registry written with the flat vector (weak cells held
    directly in [programs]) into 64-slot chunks, keeping every uid.
    Does nothing to a chunked registry.  Run once per open, by
    [Dynamic_compiler.install]. *)

val check_password : Rt.t -> string -> bool

val count : Rt.t -> int
(** Number of uids ever allocated (including collected programs). *)

val hp_at : Rt.t -> int -> Pvalue.t
(** The hyper-program at an index; [Null] if it has been collected. *)

val add_hp : Rt.t -> password:string -> Oid.t -> int
(** Register a hyper-program (idempotent); returns its unique id — its
    offset in the persistent vector, as in the paper.
    @raise Rt.Jerror [java.lang.SecurityException] on a bad password. *)

(** {1 Link retrieval}

    Broken hyper-links degrade instead of crashing: {!try_get_link}
    reports failure as data — the same {!Pstore.Failure.t} the store's
    salvage reads use — and {!get_link} hands quarantined targets back
    as [hyper.BrokenLink] instances. *)

val try_get_link :
  Rt.t -> password:string -> hp:int -> link:int -> (Pvalue.t, Failure.t) result
(** Like {!get_link}, but failures come back as data: [Collected] for a
    garbage-collected program, [Bad_index] for a link number the program
    does not have, [Quarantined]/[Dangling] for an unreadable link or
    target.  Every call reads the registry and the program's current
    link vector, so the answer is always the link the program names
    now.
    @raise Rt.Jerror [java.lang.SecurityException] on a bad password. *)

val link_status : Rt.t -> Oid.t -> (Pvalue.t, Failure.t) result
(** What {!try_get_link} answers for a [HyperLinkHP] instance in hand. *)

val get_link : Rt.t -> password:string -> hp:int -> link:int -> Pvalue.t
(** Retrieve a [HyperLinkHP] instance (Figure 9's [getLink]).
    A quarantined or dangling target degrades to a [hyper.BrokenLink]
    instance carrying the reason ([Pvalue.Null] if that class is not
    loaded); the paper-specified exceptions are kept for the rest.
    @raise Rt.Jerror on bad password, collected program, or bad index. *)

val live_programs : Rt.t -> (int * Oid.t) list
(** Registered programs whose weak target is still alive. *)

(** {1 Benchmark stub} *)

type memo_stats = {
  hits : int;
  misses : int;
  entries : int;
  capacity : int;
}

val memo_stats : Rt.t -> memo_stats
(** Always zero: there is no getLink memo, and every {!try_get_link}
    reads the registry.  Kept only for the frozen benchmark that reads
    it. *)

(** {1 Maintenance} *)

val origin_anchors : Rt.t -> (string * Oid.t) list
(** The [hyper.origin:*] blob anchors of live programs, for
    [Integrity.check ~anchors]. *)

type prune_stats = {
  cleared_slots : int;  (** weak slots nulled (uids stay stable) *)
  removed_origins : int;  (** [hyper.origin:*] blobs dropped *)
}

val prune : Rt.t -> prune_stats
(** Null out weak slots whose program was collected and drop origin
    blobs naming collected programs.  Quarantined programs are kept.
    Also drops the compile-cache blobs older stores carry (not counted). *)
