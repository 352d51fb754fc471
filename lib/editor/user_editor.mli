(** The hyper-program editor (paper Figure 10, top layer; Section 5.4).

    A user editor built on the window editor whose links are hyper-links.
    Supports composing by typing and inserting links (with the Section 2
    syntactic-legality check), saving to / loading from the storage form,
    syntax highlighting, Compile / Go with errors reported in
    hyper-program terms, and drag-and-drop of link buttons. *)

open Minijava
open Hyperprog

type t

val create : ?class_name:string -> Rt.t -> t
val buffer : t -> Hyperlink.t Basic_editor.t
val class_name : t -> string

val last_error : t -> string option
(** The last compile or insertion error, if any. *)

val type_text : t -> string -> unit
(** Insert text at the cursor (the composition keystroke path). *)

val move_cursor : t -> Basic_editor.pos -> unit

val editing_form : t -> Editing_form.t

val insert_link :
  ?check:bool -> ?label:string -> t -> Hyperlink.t -> (unit, string) result
(** Insert a hyper-link at the cursor.  With [check] (default true) the
    insertion is validated against the link's syntactic production and
    refused with an explanation if illegal. *)

val press_button : t -> Basic_editor.pos -> Hyperlink.t option
(** The hyper-link under a position, for the UI to display in a browser. *)

val drag_link : t -> from:Basic_editor.pos -> to_:Basic_editor.pos -> (unit, string) result
(** Move a link button (the Section 5.4.1 drag-and-drop interaction). *)

val save : t -> Pstore.Oid.t
(** Store the buffer as a fresh storage-form instance. *)

val load : t -> Pstore.Oid.t -> unit

type compile_outcome =
  | Compiled of string list  (** class names, principal first *)
  | Compile_failed of string

val compile : ?mode:Dynamic_compiler.mode -> t -> compile_outcome
(** Save and compile; errors are reported in terms of the original
    hyper-program via the textual form's source map. *)

val go : ?mode:Dynamic_compiler.mode -> ?argv:string list -> t -> (string, string) result
(** The Go button: save, compile and run the principal class's main. *)

val render : ?ansi:bool -> t -> string
(** Highlight and render the buffer; link buttons appear as [\[label\]]. *)
