(* Denotable hyper-links (paper Section 2, Table 1).

   A hyper-link denotes either a value (object, primitive, type, method,
   constructor) or a location that contains a value (static field,
   instance field, array element).  Location links give delayed binding:
   the program uses whatever the location contains when it runs. *)

open Pstore
open Minijava

type t =
  | L_object of Oid.t (* object, array or string instance *)
  | L_primitive of Pvalue.t (* primitive value *)
  | L_type of Jtype.t (* class / interface / primitive type / array type *)
  | L_static_method of { cls : string; name : string; desc : string }
  | L_instance_method of { cls : string; name : string; desc : string }
  | L_constructor of { cls : string; desc : string }
  | L_static_field of { cls : string; name : string } (* location *)
  | L_instance_field of { target : Oid.t; cls : string; name : string } (* location *)
  | L_array_element of { array : Oid.t; index : int } (* location *)

(* The Java syntactic productions of Table 1. *)
type production =
  | P_class_type
  | P_primitive_type
  | P_interface_type
  | P_array_type
  | P_primary
  | P_literal
  | P_field_access
  | P_name
  | P_array_access

let production_name = function
  | P_class_type -> "ClassType"
  | P_primitive_type -> "PrimitiveType"
  | P_interface_type -> "InterfaceType"
  | P_array_type -> "ArrayType"
  | P_primary -> "Primary"
  | P_literal -> "Literal"
  | P_field_access -> "FieldAccess"
  | P_name -> "Name"
  | P_array_access -> "ArrayAccess"

(* Table 1: each hyper-link kind's equivalent production.  Distinguishing
   class from interface types needs the class environment. *)
let production_of env link =
  match link with
  | L_object _ -> P_primary
  | L_primitive _ -> P_literal
  | L_type (Jtype.Class name) -> begin
    match env.Jtype.find_class name with
    | Some ci when ci.Jtype.ci_interface -> P_interface_type
    | Some _ | None -> P_class_type
  end
  | L_type (Jtype.Array _) -> P_array_type
  | L_type _ -> P_primitive_type
  | L_static_method _ | L_instance_method _ | L_constructor _ -> P_name
  | L_static_field _ | L_instance_field _ -> P_field_access
  | L_array_element _ -> P_array_access

(* A short default label for displaying the link as a button. *)
let default_label vm link =
  match link with
  | L_object oid -> begin
    match Store.Session.get vm.Rt.session oid with
    | Pstore.Heap.Str s -> "\"" ^ (if String.length s > 12 then String.sub s 0 12 ^ "…" else s) ^ "\""
    | Pstore.Heap.Record r -> r.Pstore.Heap.class_name ^ "@" ^ string_of_int (Oid.to_int oid)
    | Pstore.Heap.Array _ -> "array@" ^ string_of_int (Oid.to_int oid)
    | Pstore.Heap.Weak _ -> "weak@" ^ string_of_int (Oid.to_int oid)
  end
  | L_primitive v -> Pvalue.to_string v
  | L_type ty -> Jtype.to_string ty
  | L_static_method { cls; name; _ } -> cls ^ "." ^ name
  | L_instance_method { name; _ } -> name
  | L_constructor { cls; _ } -> "new " ^ cls
  | L_static_field { cls; name } -> cls ^ "." ^ name
  | L_instance_field { name; _ } -> "." ^ name
  | L_array_element { index; _ } -> "[" ^ string_of_int index ^ "]"

(* Is this a location link (delayed binding) rather than a value link? *)
let is_location = function
  | L_static_field _ | L_instance_field _ | L_array_element _ -> true
  | L_object _ | L_primitive _ | L_type _ | L_static_method _ | L_instance_method _
  | L_constructor _ -> false

(* Oids a link pins in the store (for reachability: a hyper-program keeps
   its hyper-linked entities alive). *)
let referenced_oids = function
  | L_object oid | L_instance_field { target = oid; _ } | L_array_element { array = oid; _ } ->
    [ oid ]
  | L_primitive _ | L_type _ | L_static_method _ | L_instance_method _ | L_constructor _
  | L_static_field _ -> []

let equal a b =
  match a, b with
  | L_object x, L_object y -> Oid.equal x y
  | L_primitive x, L_primitive y -> Pvalue.equal x y
  | L_type x, L_type y -> Jtype.equal x y
  | L_static_method x, L_static_method y ->
    String.equal x.cls y.cls && String.equal x.name y.name && String.equal x.desc y.desc
  | L_instance_method x, L_instance_method y ->
    String.equal x.cls y.cls && String.equal x.name y.name && String.equal x.desc y.desc
  | L_constructor x, L_constructor y -> String.equal x.cls y.cls && String.equal x.desc y.desc
  | L_static_field x, L_static_field y -> String.equal x.cls y.cls && String.equal x.name y.name
  | L_instance_field x, L_instance_field y ->
    Oid.equal x.target y.target && String.equal x.cls y.cls && String.equal x.name y.name
  | L_array_element x, L_array_element y -> Oid.equal x.array y.array && x.index = y.index
  | ( ( L_object _ | L_primitive _ | L_type _ | L_static_method _ | L_instance_method _
      | L_constructor _ | L_static_field _ | L_instance_field _ | L_array_element _ ),
      _ ) -> false

let pp ppf link =
  match link with
  | L_object oid -> Format.fprintf ppf "object %a" Oid.pp oid
  | L_primitive v -> Format.fprintf ppf "primitive %a" Pvalue.pp v
  | L_type ty -> Format.fprintf ppf "type %a" Jtype.pp ty
  | L_static_method { cls; name; desc } -> Format.fprintf ppf "static method %s.%s%s" cls name desc
  | L_instance_method { cls; name; desc } -> Format.fprintf ppf "method %s.%s%s" cls name desc
  | L_constructor { cls; desc } -> Format.fprintf ppf "constructor %s%s" cls desc
  | L_static_field { cls; name } -> Format.fprintf ppf "static field %s.%s" cls name
  | L_instance_field { target; cls; name } ->
    Format.fprintf ppf "field %a:%s.%s" Oid.pp target cls name
  | L_array_element { array; index } -> Format.fprintf ppf "element %a[%d]" Oid.pp array index
