(** The window editor (paper Figure 10, middle layer): an API for the
    graphical display and editing of a basic editor's contents — faces,
    a viewport, a cursor, and rendering to styled segments or ANSI text. *)

type 'a t

type segment = {
  seg_text : string;
  seg_face : Face.t;
  seg_link : bool;  (** true for rendered link buttons *)
}

val create : ?width:int -> ?height:int -> 'a Basic_editor.t -> 'a t
val buffer : 'a t -> 'a Basic_editor.t

val cursor : 'a t -> Basic_editor.pos
val set_cursor : 'a t -> Basic_editor.pos -> unit
(** Clamps to the buffer and scrolls the viewport to keep the cursor
    visible. *)

val set_selection : 'a t -> (Basic_editor.pos * Basic_editor.pos) option -> unit

val scroll_to : 'a t -> int -> unit

val set_render_label : 'a t -> ('a Basic_editor.link -> string) -> unit
(** Override how link buttons render (default ["[" ^ label ^ "]"]); the
    user editor marks links with unreadable targets as ["[!" ^ label ^ "]"]. *)

val set_face : 'a t -> line:int -> start:int -> len:int -> Face.t -> unit
(** Attach a face to a text run.  Edits clear the touched line's runs;
    higher layers re-apply styling. *)

val clear_faces : ?line:int -> 'a t -> unit

val insert_at_cursor : 'a t -> string -> unit
val insert_link_at_cursor : 'a t -> 'a Basic_editor.link -> unit
val delete_selection : 'a t -> unit
val backspace : 'a t -> unit

val render_line : 'a t -> int -> segment list
val render_ansi : 'a t -> string
val render_plain : 'a t -> string
