(* Customisable display formats for the OCB browser (Section 5.3): "to
   allow the graphical display format to be customised for specific
   classes, including the temporary hiding of superclass fields and
   methods". *)

open Minijava

type t = {
  hide_superclass_fields : bool;
  hide_superclass_methods : bool;
  hidden_fields : string list;
  max_string : int; (* truncate long strings in value cells *)
  summary : (Rt.t -> Pstore.Oid.t -> string) option; (* custom one-line form *)
}

let default =
  {
    hide_superclass_fields = false;
    hide_superclass_methods = false;
    hidden_fields = [];
    max_string = 40;
    summary = None;
  }

type registry = (string, t) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16

let register registry ~class_name format = Hashtbl.replace registry class_name format

(* Lookup walks the superclass chain so a format registered for a base
   class applies to subclasses too. *)
let lookup vm registry class_name =
  let rec go name =
    match Hashtbl.find_opt registry name with
    | Some f -> f
    | None -> begin
      match Rt.find_class vm name with
      | Some { Rt.rc_super = Some super; _ } -> go super
      | _ -> default
    end
  in
  go class_name

let visible_field format ~inherited rf =
  (not (List.mem rf.Rt.rf_name format.hidden_fields))
  && not (format.hide_superclass_fields && inherited)
