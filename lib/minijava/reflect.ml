(* Core reflection: Class / Method / Field / Constructor mirrors.

   Mirrors are ordinary store objects of the bootstrap classes
   java.lang.Class and java.lang.reflect.{Method,Field,Constructor}; they
   are canonicalised per VM so `a.getClass() == b.getClass()` holds for
   same-class receivers — the identity the browser uses to visualise
   sharing.  Method.invoke boxes and unboxes primitives through the
   java.lang wrapper classes. *)

open Pstore

let class_class = "java.lang.Class"
let method_class = "java.lang.reflect.Method"
let field_class = "java.lang.reflect.Field"
let ctor_class = "java.lang.reflect.Constructor"

let mirror_key kind cls name desc = kind ^ "#" ^ cls ^ "#" ^ name ^ "#" ^ desc

(* Allocate an instance of [cls] and set the named fields (bypassing
   constructors; mirrors are system objects). *)
let alloc_with_fields vm cls (bindings : (string * Pvalue.t) list) =
  let v = Rt.alloc_object vm cls in
  (match v with
  | Pvalue.Ref oid ->
    List.iter
      (fun (name, value) ->
        let slot = Rt.field_slot vm cls name in
        Store.Session.set_field vm.Rt.session oid slot value)
      bindings
  | _ -> assert false);
  v

let class_mirror vm cls_name =
  match Hashtbl.find_opt vm.Rt.class_mirrors cls_name with
  | Some oid -> Pvalue.Ref oid
  | None ->
    let v = alloc_with_fields vm class_class [ ("name", Rt.jstring vm cls_name) ] in
    (match v with
    | Pvalue.Ref oid -> Hashtbl.replace vm.Rt.class_mirrors cls_name oid
    | _ -> assert false);
    v

let member_mirror vm ~mirror_class ~kind ~cls ~name ~desc =
  let key = mirror_key kind cls name desc in
  match Hashtbl.find_opt vm.Rt.member_mirrors key with
  | Some oid -> Pvalue.Ref oid
  | None ->
    let v =
      alloc_with_fields vm mirror_class
        [
          ("declClass", Rt.jstring vm cls);
          ("name", Rt.jstring vm name);
          ("descriptor", Rt.jstring vm desc);
        ]
    in
    (match v with
    | Pvalue.Ref oid -> Hashtbl.replace vm.Rt.member_mirrors key oid
    | _ -> assert false);
    v

let method_mirror vm ~cls ~name ~desc =
  member_mirror vm ~mirror_class:method_class ~kind:"method" ~cls ~name ~desc

let field_mirror vm ~cls ~name ~desc =
  member_mirror vm ~mirror_class:field_class ~kind:"field" ~cls ~name ~desc

let ctor_mirror vm ~cls ~desc =
  member_mirror vm ~mirror_class:ctor_class ~kind:"ctor" ~cls ~name:"<init>" ~desc

(* Read a string field of a mirror. *)
let mirror_field vm mirror_cls v name =
  match v with
  | Pvalue.Ref oid ->
    let slot = Rt.field_slot vm mirror_cls name in
    Rt.ocaml_string vm (Store.Session.field vm.Rt.session oid slot)
  | _ -> Rt.npe ()

(* -- boxing ----------------------------------------------------------------- *)

let box vm (v : Pvalue.t) =
  match v with
  | Pvalue.Bool b -> alloc_with_fields vm "java.lang.Boolean" [ ("value", Pvalue.Bool b) ]
  | Pvalue.Byte n | Pvalue.Short n ->
    alloc_with_fields vm "java.lang.Integer" [ ("value", Pvalue.Int (Int32.of_int n)) ]
  | Pvalue.Int n -> alloc_with_fields vm "java.lang.Integer" [ ("value", Pvalue.Int n) ]
  | Pvalue.Char c -> alloc_with_fields vm "java.lang.Character" [ ("value", Pvalue.Char c) ]
  | Pvalue.Long n -> alloc_with_fields vm "java.lang.Long" [ ("value", Pvalue.Long n) ]
  | Pvalue.Float f | Pvalue.Double f ->
    alloc_with_fields vm "java.lang.Double" [ ("value", Pvalue.Double f) ]
  | Pvalue.Null | Pvalue.Ref _ -> v

let unbox vm (v : Pvalue.t) (target : Jtype.t) =
  if not (Jtype.is_primitive target) then v
  else
    match v with
    | Pvalue.Ref oid -> begin
      match Store.Session.get vm.Rt.session oid with
      | Heap.Record r
        when List.mem r.Heap.class_name
               [ "java.lang.Integer"; "java.lang.Long"; "java.lang.Double";
                 "java.lang.Boolean"; "java.lang.Character" ] -> begin
        let slot = Rt.field_slot vm r.Heap.class_name "value" in
        let inner = Store.Session.field vm.Rt.session oid slot in
        match target, inner with
        | Jtype.Int, Pvalue.Int _ -> inner
        | Jtype.Long, Pvalue.Long _ -> inner
        | Jtype.Long, Pvalue.Int n -> Pvalue.Long (Int64.of_int32 n)
        | Jtype.Double, (Pvalue.Double _ | Pvalue.Float _) -> inner
        | Jtype.Double, Pvalue.Int n -> Pvalue.Double (Int32.to_float n)
        | Jtype.Float, Pvalue.Double f -> Pvalue.Float f
        | Jtype.Boolean, Pvalue.Bool _ -> inner
        | Jtype.Char, Pvalue.Char _ -> inner
        | Jtype.Byte, Pvalue.Int n -> Pvalue.byte (Int32.to_int n)
        | Jtype.Short, Pvalue.Int n -> Pvalue.short (Int32.to_int n)
        | Jtype.Int, Pvalue.Char c -> Pvalue.Int (Int32.of_int c)
        | _ ->
          Rt.jerror "java.lang.IllegalArgumentException" "cannot unbox %s to %s"
            (Pvalue.to_string inner) (Jtype.to_string target)
      end
      | _ ->
        Rt.jerror "java.lang.IllegalArgumentException" "argument is not a boxed primitive"
    end
    | Pvalue.Null -> Rt.npe ()
    | _ -> v (* already primitive *)

(* -- reflective operations ---------------------------------------------------- *)

let methods_of_class vm cls_name ~include_inherited =
  let rec chain name acc =
    match Rt.find_class vm name with
    | None -> acc
    | Some rc ->
      let own = Hashtbl.fold (fun _ ms acc -> ms @ acc) rc.Rt.rc_methods [] in
      let own =
        List.filter
          (fun m ->
            (not (String.equal m.Rt.rm_name "<init>"))
            && not (String.equal m.Rt.rm_name "<clinit>"))
          own
      in
      let acc = acc @ own in
      if include_inherited then
        match rc.Rt.rc_super with
        | Some super -> chain super acc
        | None -> acc
      else acc
  in
  chain cls_name []
  |> List.sort (fun a b ->
         match String.compare a.Rt.rm_name b.Rt.rm_name with
         | 0 -> String.compare a.Rt.rm_desc b.Rt.rm_desc
         | c -> c)

let fields_of_class vm cls_name =
  match Rt.find_class vm cls_name with
  | None -> []
  | Some rc -> Array.to_list rc.Rt.rc_layout

let invoke vm ~method_mirror_value ~receiver ~(args : Pvalue.t list) =
  let cls = mirror_field vm method_class method_mirror_value "declClass" in
  let name = mirror_field vm method_class method_mirror_value "name" in
  let desc = mirror_field vm method_class method_mirror_value "descriptor" in
  let rm = Rt.resolve_method vm cls name desc in
  let params = rm.Rt.rm_sig.Jtype.params in
  if List.length args <> List.length params then
    Rt.jerror "java.lang.IllegalArgumentException" "expected %d arguments, got %d"
      (List.length params) (List.length args);
  let unboxed = List.map2 (fun a p -> unbox vm a p) args params in
  let result =
    if rm.Rt.rm_static then Vm.call_method vm rm unboxed
    else begin
      match receiver with
      | Pvalue.Null -> Rt.npe ()
      | recv ->
        let dispatch_cls = Rt.dispatch_class_name vm recv in
        let actual = Rt.dispatch vm dispatch_cls name desc in
        Vm.call_method vm actual (recv :: unboxed)
    end
  in
  if Jtype.equal rm.Rt.rm_sig.Jtype.ret Jtype.Void then Pvalue.Null else box vm result

let field_get vm ~field_mirror_value ~receiver =
  let cls = mirror_field vm field_class field_mirror_value "declClass" in
  let name = mirror_field vm field_class field_mirror_value "name" in
  let rc = Rt.get_class vm cls in
  match Hashtbl.find_opt rc.Rt.rc_static_index name with
  | Some slot -> box vm rc.Rt.rc_statics.(slot)
  | None -> begin
    match receiver with
    | Pvalue.Ref oid -> box vm (Store.Session.field vm.Rt.session oid (Rt.field_slot vm cls name))
    | _ -> Rt.npe ()
  end

let field_set vm ~field_mirror_value ~receiver ~value =
  let cls = mirror_field vm field_class field_mirror_value "declClass" in
  let name = mirror_field vm field_class field_mirror_value "name" in
  let desc = mirror_field vm field_class field_mirror_value "descriptor" in
  let target_ty = Jtype.of_descriptor desc in
  let value = unbox vm value target_ty in
  let rc = Rt.get_class vm cls in
  match Hashtbl.find_opt rc.Rt.rc_static_index name with
  | Some slot -> rc.Rt.rc_statics.(slot) <- value
  | None -> begin
    match receiver with
    | Pvalue.Ref oid -> Store.Session.set_field vm.Rt.session oid (Rt.field_slot vm cls name) value
    | _ -> Rt.npe ()
  end

let ctor_new_instance vm ~ctor_mirror_value ~(args : Pvalue.t list) =
  let cls = mirror_field vm ctor_class ctor_mirror_value "declClass" in
  let desc = mirror_field vm ctor_class ctor_mirror_value "descriptor" in
  let msig = Jtype.msig_of_descriptor desc in
  let unboxed = List.map2 (fun a p -> unbox vm a p) args msig.Jtype.params in
  Vm.new_instance vm ~cls ~desc unboxed
