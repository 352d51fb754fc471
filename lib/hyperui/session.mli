(** The hyper-programming user interface (paper Section 5.4, Figure 12):
    the integration of the hyper-program editor with the OCB browser.

    Models the paper's interactions: composing by typing and inserting
    links discovered in the browser (value half or location half),
    pressing link buttons to display entities, Compile / Display Class /
    Go, plus the drag-and-drop insertion the paper plans. *)

open Pstore
open Minijava
open Hyperprog

type t

val create : ?echo:bool -> Store.t -> t
(** Boot (or reopen) a VM over the store, install the hyper-programming
    runtime, and open a browser.  [echo] also prints System output to
    stdout. *)

val vm : t -> Rt.t
val browser : t -> Browser.Ocb.t

val events : t -> string list
(** The session's event log, oldest first. *)

(** {1 Editors} *)

val new_editor : ?class_name:string -> t -> int * Editor.User_editor.t
val front_editor : t -> Editor.User_editor.t option

(** {1 The browser-to-editor link protocol} *)

type half =
  | Value_half  (** right half: link to the value *)
  | Location_half  (** left half: link to the location *)

val insert_link_from_browser : ?half:half -> ?check:bool -> t -> (Hyperlink.t, string) result
(** The Insert Link button: link the entity displayed in the front-most
    browser panel into the front editor at its cursor. *)

val insert_link_from_row :
  ?half:half -> ?check:bool -> t -> row:int -> (Hyperlink.t, string) result
(** Right-button on the n-th row of the front panel. *)

val drag_from_browser :
  ?half:half -> ?check:bool -> t -> row:int -> pos:Editor.Basic_editor.pos ->
  (Hyperlink.t, string) result
(** Drag-and-drop: drop the n-th row of the front panel at a position in
    the front editor. *)

val press_link_button : t -> Editor.Basic_editor.pos -> (Browser.Ocb.panel, string) result
(** Press a link button in the editor: display the linked entity in a
    new browser panel. *)

(** {1 Compile / Display Class / Go (Section 5.4.2)} *)

val compile : ?mode:Dynamic_compiler.mode -> t -> Editor.User_editor.compile_outcome
val display_class : ?mode:Dynamic_compiler.mode -> t -> (Browser.Ocb.panel, string) result
val go : ?mode:Dynamic_compiler.mode -> ?argv:string list -> t -> (string, string) result

val edit_class : t -> string -> (int * Editor.User_editor.t, string) result
(** The Section 6 hyper-code association: open the hyper-program a class
    was compiled from in a fresh editor. *)

val output : t -> string
(** Drain the program output (System.out) produced so far. *)

val render : t -> string
(** Render the front editor (plain text, no ANSI styling) and the
    browser panels. *)
