(** Object-graph analysis for the browser: sharing, identity and
    reachability paths (OCB's "visualisation of object sharing and
    identity"). *)

open Pstore

val shared_objects : Store.t -> Oid.Set.t
(** Objects referenced from at least two places. *)

val inbound_count : Store.t -> Oid.t -> int

type path_step =
  | From_root of string
  | Via_field of Oid.t * int  (** holder, slot *)
  | Via_element of Oid.t * int

val pp_step : Store.t -> Format.formatter -> path_step -> unit

val path_to : Store.t -> Oid.t -> path_step list option
(** A shortest path from the named roots to an object, if reachable. *)

val census : Store.t -> (string * int) list
(** Instance counts per class, sorted by class name. *)
