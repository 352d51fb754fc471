(** The class loader: links batches of class files into a running VM.

    Batches are ordered by the extends/implements relation; every defined
    class is also written to the store's blob table, making classes
    persistent — a reopened store relinks them without recompiling.  A
    class blob names its compilation unit's source by the key of a
    [minijava.source:<hex MD5>] blob, so each unit's text is stored once;
    a redefinition removes a unit blob that no loaded class still names.

    Redefinition (the fresh-class-loader analog and the mechanism behind
    schema evolution) swaps a loaded class, rebuilds the instance layouts
    of its loaded subclasses, and reconstructs every store instance IN
    PLACE — oids are preserved, so references and hyper-links stay
    valid.  A batch whose every class file is byte-identical to the loaded
    one is not redefined: the loaded classes stay, with their statics
    reset, and nothing is written to the store that is already there. *)

exception Link_error of string

val order_blob : string

val load_batch : ?persist:bool -> Rt.t -> Classfile.t list -> Rt.rclass list
(** Define a batch; superclasses and interfaces outside the batch must
    already be loaded.  [persist] (default true) writes the class files
    to the store.
    @raise Link_error on missing dependencies.
    @raise Rt.Jerror [LinkageError] on duplicate definitions. *)

val load_or_redefine_batch : ?persist:bool -> Rt.t -> Classfile.t list -> Rt.rclass list
(** As {!load_batch}, but classes already loaded are redefined: subclass
    layouts are rebuilt and store instances reconstructed in place,
    copying fields by name with safe numeric widenings and defaulting the
    rest.  If every class file equals the loaded one byte for byte, the
    loaded classes are returned instead, their statics reset to defaults
    and their static initialisers due to run again; no instance is
    touched and the store is not flagged for a full image.
    @raise Invalid_argument when a redefinition meets open snapshot
    sessions (see {!Pstore.Store.mark_dirty}). *)

val relink_persisted : Rt.t -> Rt.rclass list
(** Relink every class persisted in the store, in original definition
    order (used when reopening a store).  The classes of one unit share
    one source string.
    @raise Link_error naming the blob when a class or unit blob is
    missing. *)
