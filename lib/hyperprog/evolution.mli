(** Schema evolution through linguistic reflection (paper Section 7).

    Because every class file carries its source, an evolution step can
    fetch the source, transform it, recompile it with the dynamic
    compiler and have the linker reconstruct every store instance in
    place — oids are preserved, so hyper-links to evolved objects remain
    valid.  The previous class file (with its source) is archived in the
    store. *)

open Minijava

exception Evolution_error of string

type result = {
  class_name : string;
  instances_updated : int;
  affected_classes : string list;  (** the class and its loaded subclasses *)
  old_version_blob : string;  (** archive key of the previous class file *)
}

val source_of_class : Rt.t -> string -> string option
(** The stored source of a loaded class. *)

val evolve :
  ?converter:string ->
  ?mode:Dynamic_compiler.mode ->
  Rt.t ->
  class_name:string ->
  new_source:string ->
  unit ->
  result
(** Evolve a class to a new definition.  [converter] is MiniJava source
    defining [public static void convert(C obj)], compiled reflectively
    and run on every instance after reconstruction.
    @raise Evolution_error on bootstrap classes or unknown classes. *)

val evolve_with :
  ?converter:string ->
  ?mode:Dynamic_compiler.mode ->
  Rt.t ->
  class_name:string ->
  transform:(string -> string) ->
  unit ->
  result
(** Evolve using the stored source and a source-to-source transform. *)

val archived_versions : Rt.t -> string -> (int * Classfile.t) list
(** Archived versions of a class, oldest first. *)
