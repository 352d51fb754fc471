(* The hyper-program storage form (Figures 4-6): store-resident
   hyper.HyperProgram instances whose text is a store string and whose
   links are hyper.HyperLinkHP instances held in a java.util.Vector.

   The OCaml side reads and writes these instances directly through the
   store so the editor and the compiler agree with what running MiniJava
   code sees through getTheText()/getTheLinks(). *)

open Pstore
open Minijava

exception Storage_error of string

let storage_error fmt = Format.kasprintf (fun s -> raise (Storage_error s)) fmt

type link_spec = {
  link : Hyperlink.t;
  label : string;
  pos : int; (* position within the storage-form text *)
}

let kind_tag = function
  | Hyperlink.L_object _ -> 0
  | Hyperlink.L_primitive _ -> 1
  | Hyperlink.L_type _ -> 2
  | Hyperlink.L_static_method _ -> 3
  | Hyperlink.L_instance_method _ -> 4
  | Hyperlink.L_constructor _ -> 5
  | Hyperlink.L_static_field _ -> 6
  | Hyperlink.L_instance_field _ -> 7
  | Hyperlink.L_array_element _ -> 8

let set_field vm oid cls name v =
  Store.Session.set_field Rt.(vm.session) oid (Rt.field_slot vm cls name) v

let get_field vm oid cls name = Store.Session.field Rt.(vm.session) oid (Rt.field_slot vm cls name)

let get_string_field vm oid cls name =
  match get_field vm oid cls name with
  | Pvalue.Ref soid -> Store.Session.get_string Rt.(vm.session) soid
  | Pvalue.Null -> ""
  | v -> storage_error "field %s.%s is not a string (%s)" cls name (Pvalue.to_string v)

let get_int_field vm oid cls name =
  match get_field vm oid cls name with
  | Pvalue.Int n -> Int32.to_int n
  | v -> storage_error "field %s.%s is not an int (%s)" cls name (Pvalue.to_string v)

let get_bool_field vm oid cls name =
  match get_field vm oid cls name with
  | Pvalue.Bool b -> b
  | v -> storage_error "field %s.%s is not a boolean (%s)" cls name (Pvalue.to_string v)

(* -- HyperLinkHP construction ---------------------------------------------- *)

let make_link vm { link; label; pos } =
  let cls = Hyper_src.hyper_link_class in
  let v = Vm.new_instance vm ~cls ~desc:"()V" [] in
  let oid = match v with Pvalue.Ref oid -> oid | _ -> assert false in
  let set name value = set_field vm oid cls name value in
  let jstr s = Rt.jstring vm s in
  set "label" (jstr label);
  set "stringPos" (Pvalue.Int (Int32.of_int pos));
  set "kindTag" (Pvalue.Int (Int32.of_int (kind_tag link)));
  let special =
    match link with
    | Hyperlink.L_type _ | Hyperlink.L_static_method _ | Hyperlink.L_instance_method _
    | Hyperlink.L_constructor _ -> true
    | _ -> false
  in
  set "isSpecial" (Pvalue.Bool special);
  set "isPrimitive"
    (Pvalue.Bool (match link with Hyperlink.L_primitive _ -> true | _ -> false));
  (match link with
  | Hyperlink.L_object target -> set "hyperLinkObject" (Pvalue.Ref target)
  | Hyperlink.L_primitive value -> begin
    set "hyperLinkObject" (Reflect.box vm value);
    let desc =
      match value with
      | Pvalue.Bool _ -> "Z"
      | Pvalue.Byte _ -> "B"
      | Pvalue.Short _ -> "S"
      | Pvalue.Char _ -> "C"
      | Pvalue.Int _ -> "I"
      | Pvalue.Long _ -> "J"
      | Pvalue.Float _ -> "F"
      | Pvalue.Double _ -> "D"
      | Pvalue.Null | Pvalue.Ref _ -> storage_error "primitive link holds a reference"
    in
    set "descriptor" (jstr desc)
  end
  | Hyperlink.L_type ty -> begin
    set "descriptor" (jstr (Jtype.descriptor ty));
    match ty with
    | Jtype.Class name when Rt.is_loaded vm name ->
      set "hyperLinkObject" (Reflect.class_mirror vm name)
    | _ -> ()
  end
  | Hyperlink.L_static_method { cls = c; name; desc }
  | Hyperlink.L_instance_method { cls = c; name; desc } ->
    set "hyperLinkObject" (Reflect.method_mirror vm ~cls:c ~name ~desc);
    set "className" (jstr c);
    set "memberName" (jstr name);
    set "descriptor" (jstr desc)
  | Hyperlink.L_constructor { cls = c; desc } ->
    set "hyperLinkObject" (Reflect.ctor_mirror vm ~cls:c ~desc);
    set "className" (jstr c);
    set "descriptor" (jstr desc)
  | Hyperlink.L_static_field { cls = c; name } ->
    set "className" (jstr c);
    set "memberName" (jstr name)
  | Hyperlink.L_instance_field { target; cls = c; name } ->
    set "hyperLinkObject" (Pvalue.Ref target);
    set "className" (jstr c);
    set "memberName" (jstr name)
  | Hyperlink.L_array_element { array; index } ->
    set "hyperLinkObject" (Pvalue.Ref array);
    set "index" (Pvalue.Int (Int32.of_int index)));
  v

let read_link vm oid =
  let cls = Hyper_src.hyper_link_class in
  let obj () =
    match get_field vm oid cls "hyperLinkObject" with
    | Pvalue.Ref target -> target
    | v -> storage_error "hyperLinkObject is not a reference (%s)" (Pvalue.to_string v)
  in
  let class_name = get_string_field vm oid cls "className" in
  let member = get_string_field vm oid cls "memberName" in
  let descriptor = get_string_field vm oid cls "descriptor" in
  let link =
    match get_int_field vm oid cls "kindTag" with
    | 0 -> Hyperlink.L_object (obj ())
    | 1 -> begin
      let boxed = get_field vm oid cls "hyperLinkObject" in
      let target_ty = Jtype.of_descriptor descriptor in
      Hyperlink.L_primitive (Reflect.unbox vm boxed target_ty)
    end
    | 2 -> Hyperlink.L_type (Jtype.of_descriptor descriptor)
    | 3 -> Hyperlink.L_static_method { cls = class_name; name = member; desc = descriptor }
    | 4 -> Hyperlink.L_instance_method { cls = class_name; name = member; desc = descriptor }
    | 5 -> Hyperlink.L_constructor { cls = class_name; desc = descriptor }
    | 6 -> Hyperlink.L_static_field { cls = class_name; name = member }
    | 7 -> Hyperlink.L_instance_field { target = obj (); cls = class_name; name = member }
    | 8 -> Hyperlink.L_array_element { array = obj (); index = get_int_field vm oid cls "index" }
    | n -> storage_error "bad link kind tag %d" n
  in
  {
    link;
    label = get_string_field vm oid cls "label";
    pos = get_int_field vm oid cls "stringPos";
  }

(* The paper's isSpecial / isPrimitive flags, for display. *)
let link_flags vm oid =
  let cls = Hyper_src.hyper_link_class in
  (get_bool_field vm oid cls "isSpecial", get_bool_field vm oid cls "isPrimitive")

(* -- HyperProgram construction & access ------------------------------------- *)

let create vm ~class_name ~text ~(links : link_spec list) =
  let cls = Hyper_src.hyper_program_class in
  let sorted = List.stable_sort (fun a b -> Int.compare a.pos b.pos) links in
  let hp =
    Vm.new_instance vm ~cls ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm text ]
  in
  let hp_oid = match hp with Pvalue.Ref oid -> oid | _ -> assert false in
  set_field vm hp_oid cls "className" (Rt.jstring vm class_name);
  let vector = get_field vm hp_oid cls "theLinks" in
  List.iter
    (fun spec ->
      let link_obj = make_link vm spec in
      ignore
        (Vm.call_virtual vm ~recv:vector ~name:"addElement" ~desc:"(Ljava.lang.Object;)V"
           [ link_obj ]))
    sorted;
  hp_oid

let text vm hp_oid = get_string_field vm hp_oid Hyper_src.hyper_program_class "theText"

let class_name vm hp_oid =
  get_string_field vm hp_oid Hyper_src.hyper_program_class "className"

let uid vm hp_oid = get_int_field vm hp_oid Hyper_src.hyper_program_class "uid"

let set_uid vm hp_oid u =
  set_field vm hp_oid Hyper_src.hyper_program_class "uid" (Pvalue.Int (Int32.of_int u))

(* The link vector's backing array and element count; [None] for a
   program without a vector. *)
let link_vector vm hp_oid =
  match get_field vm hp_oid Hyper_src.hyper_program_class "theLinks" with
  | Pvalue.Ref vec_oid -> begin
    let data = get_field vm vec_oid "java.util.Vector" "data" in
    let count = get_int_field vm vec_oid "java.util.Vector" "count" in
    match data with
    | Pvalue.Ref arr_oid -> Some (arr_oid, count)
    | _ -> storage_error "vector data is not an array"
  end
  | Pvalue.Null -> None
  | _ -> storage_error "theLinks is not a Vector"

let link_at vm arr_oid i =
  match Store.Session.elem Rt.(vm.session) arr_oid i with
  | Pvalue.Ref oid -> oid
  | v -> storage_error "link vector holds non-reference %s" (Pvalue.to_string v)

(* Oids of the HyperLinkHP instances, in vector order. *)
let link_oids vm hp_oid =
  match link_vector vm hp_oid with
  | Some (arr_oid, count) -> List.init count (link_at vm arr_oid)
  | None -> []

(* One link's oid, reading only the vector's count and element [i]. *)
let link_oid vm hp_oid i =
  match link_vector vm hp_oid with
  | Some (arr_oid, count) when i >= 0 && i < count -> Some (link_at vm arr_oid i)
  | Some _ | None -> None

let links vm hp_oid = List.map (read_link vm) (link_oids vm hp_oid)

(* One link record at a time: a damaged record is data, not an exception,
   and every link keeps its getLink index. *)
let readable_links vm hp_oid =
  List.mapi
    (fun i oid ->
      match read_link vm oid with
      | spec -> (i, oid, Ok spec)
      | exception Quarantine.Quarantined (_, reason) -> (i, oid, Error reason)
      | exception Pstore.Heap.Heap_error _ -> (i, oid, Error "dangling reference"))
    (link_oids vm hp_oid)

(* How every form names a link it could not read. *)
let describe_unreadable index reason = Printf.sprintf "unreadable hyper-link %d: %s" index reason

(* Is this store object a HyperProgram instance? *)
let is_hyper_program vm oid =
  match Store.Session.find Rt.(vm.session) oid with
  | Some (Pstore.Heap.Record r) ->
    String.equal r.Pstore.Heap.class_name Hyper_src.hyper_program_class
  | _ -> false
