(** The store heap: a table from {!Oid.t} to objects.

    Object kinds: records (class instances), arrays, immutable strings and
    weak cells.  Records have a mutable field array so schema evolution can
    reshape instances in place without changing their oid; a record's class
    name is fixed.  The heap keeps a live count per class beside its
    table (see {!class_counts}). *)

exception Heap_error of string

type record = {
  class_name : string;
  mutable fields : Pvalue.t array;
}

type arr = {
  elem_type : string;  (** element type descriptor, e.g. ["Person"] or ["int"] *)
  elems : Pvalue.t array;
}

type weak_cell = { mutable target : Pvalue.t }

type entry =
  | Record of record
  | Array of arr
  | Str of string
  | Weak of weak_cell

type t

val create : unit -> t
val size : t -> int

val next_oid : t -> int
val set_next_oid : t -> int -> unit

val insert : t -> Oid.t -> entry -> unit
(** Used when rebuilding a heap from a stabilised image.
    @raise Heap_error if the oid is already live. *)

val find : t -> Oid.t -> entry option
val is_live : t -> Oid.t -> bool

val get : t -> Oid.t -> entry
(** @raise Heap_error on a dangling oid. *)

val dangling : Oid.t -> 'a
(** Raise the {!Heap_error} {!get} raises for a dangling oid. *)

(** {2 Entry projections}

    What the accessors below apply to a looked-up entry; exposed so a
    reader that resolves entries elsewhere (a snapshot session's overlay)
    reports exactly the same errors.  Each raises {!Heap_error} on the
    wrong kind or a bad index. *)

val as_record : Oid.t -> entry -> record
val as_array : Oid.t -> entry -> arr
val as_string : Oid.t -> entry -> string
val as_weak : Oid.t -> entry -> weak_cell
val entry_class : entry -> string
(** Class descriptor: class name for records, [ty ^ "[]"] for arrays,
    ["java.lang.String"] for strings. *)

val check_field : Oid.t -> record -> int -> unit
val check_elem : arr -> int -> unit
val record_field : Oid.t -> record -> int -> Pvalue.t
val array_elem : arr -> int -> Pvalue.t

val get_record : t -> Oid.t -> record
val get_array : t -> Oid.t -> arr
val field : t -> Oid.t -> int -> Pvalue.t
val set_field : t -> Oid.t -> int -> Pvalue.t -> unit
val set_elem : t -> Oid.t -> int -> Pvalue.t -> unit

val remove : t -> Oid.t -> unit

val class_counts : t -> (string * int) list
(** Live entries per {!entry_class}, sorted by class; classes with no
    live entry are absent.  Read from counts that {!insert}, {!remove}
    and {!replace_all} keep, so the time is linear in the number of
    classes, not of entries, and the answer always equals a walk. *)

val iter : (Oid.t -> entry -> unit) -> t -> unit
val fold : (Oid.t -> entry -> 'a -> 'a) -> t -> 'a -> 'a
val oids : t -> Oid.t list

val strong_refs : entry -> Oid.t list
(** Oids directly referenced by an entry.  Weak cells contribute none:
    their target is reachable only if some strong path also reaches it. *)

val replace_all : t -> from:t -> unit
(** Replace this heap's entire contents with another's (used by
    transaction rollback). *)
