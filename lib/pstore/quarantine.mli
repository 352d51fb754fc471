(** The quarantine set: corrupt or undecodable objects, isolated rather
    than fatal.

    Reads of a quarantined oid raise {!Quarantined} (a typed error the
    upper layers catch to render broken-link placeholders), while every
    other object stays readable.  A quarantined oid may still have a heap
    entry (in-memory corruption keeps the suspect entry for forensics) or
    none at all (image-load salvage drops the undecodable payload). *)

exception Quarantined of Oid.t * string

type t

(** Salvage reads ({!Store.Session.try_get} and friends) report their failures
    through the shared {!Failure.t} variant. *)

val create : unit -> t
val add : t -> Oid.t -> string -> unit
val remove : t -> Oid.t -> unit
val find : t -> Oid.t -> string option
val mem : t -> Oid.t -> bool
val size : t -> int
val is_empty : t -> bool

val to_list : t -> (Oid.t * string) list
(** Sorted by oid, for deterministic display and serialisation. *)

val replace_all : t -> from:t -> unit
(** Replace the whole set with another's contents (transaction rollback). *)
