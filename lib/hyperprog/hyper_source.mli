(** A textual interchange format for hyper-programs ([.hp] files).

    The read/write counterpart of the paper's Section 6 HTML publishing:
    the program text carries [#<n>] markers at link positions and a
    header describes each link symbolically, so hyper-programs can be
    authored in a plain editor and shipped between stores:

    {v
//! class: MarryExample
//! link 0: method Person.marry (LPerson;LPerson;)V
//! link 1: root vangelis
//! link 2: root mary
public class MarryExample {
  public static void main(String[] args) {
    #<0>(#<1>, #<2>);
  }
}
    v}

    Link specifications: [root NAME], [object @OID], [int N], [long N],
    [double X], [float X], [boolean B], [char CODE], [type DESC],
    [method CLS.NAME [DESC]], [constructor CLS [DESC]],
    [field CLS.NAME], [field TARGET CLS.NAME], [element TARGET IDX],
    where TARGET is [root:NAME] or [@OID]. *)

open Pstore
open Minijava

exception Format_error of string

val parse_link : Rt.t -> string -> Hyperlink.t
(** Parse one link specification, resolving roots, oids and method
    descriptors against the VM.
    @raise Format_error on malformed or unresolvable specs. *)

val to_storage : Rt.t -> string -> Oid.t
(** Parse a whole [.hp] source and create the storage-form instance.  If
    no [class:] header is given, the principal class name is inferred
    from the program text. *)

val of_storage : Rt.t -> Oid.t -> string
(** Print a storage-form hyper-program as [.hp] source.  Object links
    print as [root:NAME] when a persistent root points at the object,
    otherwise as a raw [@OID].
    @raise Format_error if a link's record cannot be read (a [.hp] file
    cannot represent such a link). *)
