(** OCB — the object/class browser (paper Section 5.3).

    Controlled programmatically through this interface and callbacks,
    exactly as the browser's design aims state.  Each panel displays one
    entity; opening a row navigates to a new panel.  Every row
    distinguishes the VALUE it contains from the LOCATION holding it,
    supporting the paper's value/location link choice. *)

open Pstore
open Minijava

type entity =
  | E_object of Oid.t
  | E_class of string
  | E_method of { cls : string; name : string; desc : string; static : bool }
  | E_constructor of { cls : string; desc : string }
  | E_value of Pvalue.t
  | E_roots  (** the persistent-root directory *)

type location =
  | Loc_static_field of string * string
  | Loc_instance_field of Oid.t * string * string  (** holder, class, field *)
  | Loc_array_element of Oid.t * int

type row = {
  row_label : string;
  row_display : string;
  row_value : entity option;  (** right half: the contained value *)
  row_location : location option;  (** left half: the location itself *)
}

type panel = {
  panel_id : int;
  entity : entity;
  mutable selected : int option;
}

type t

val create : Rt.t -> t
val vm : t -> Rt.t
val panels : t -> panel list
(** Front-most first. *)

val formats : t -> Display_format.registry
val front : t -> panel option

val on_open : t -> (entity -> unit) -> unit
(** Register a callback fired whenever a panel opens. *)

val open_entity : t -> entity -> panel
val open_object : t -> Oid.t -> panel
val open_class : t -> string -> panel
val open_roots : t -> panel

val close_panel : t -> int -> unit
val bring_to_front : t -> int -> unit

val entity_title : t -> entity -> string
val display_value : t -> ?format:Display_format.t -> Pvalue.t -> string
val rows : t -> panel -> row list

val open_row : t -> panel -> int -> panel option
(** Open the value of the n-th row in a new panel; records the
    selection. *)

val open_class_of : t -> panel -> panel option
(** Display Class: open the class panel of an object panel. *)

val invoke :
  t -> cls:string -> name:string -> desc:string -> receiver:Pvalue.t option -> Pvalue.t
(** Invoke a no-argument method (the browser's method-invocation
    facility). *)
