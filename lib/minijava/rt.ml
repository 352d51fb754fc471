(* Runtime structures of the MiniJava VM.

   The VM heap IS the persistent store heap: `new` allocates a store
   record, strings are store strings, arrays are store arrays.  This is
   the orthogonal-persistence property the paper relies on — a hyper-link
   captured at composition time denotes the same store object the running
   program manipulates.

   The VM registers a pin callback with the store so that objects
   reachable only from VM state (static fields, active frames, interned
   literals, reflection mirrors) survive store garbage collection. *)

open Pstore

exception Jerror of {
  jclass : string; (* e.g. "java.lang.NullPointerException" *)
  message : string;
  mutable stack : string list;
}

let jerror jclass fmt =
  Format.kasprintf (fun message -> raise (Jerror { jclass; message; stack = [] })) fmt

let npe () = jerror "java.lang.NullPointerException" "null dereference"

type rfield = {
  rf_name : string;
  rf_type : Jtype.t;
  rf_static : bool;
}

type rmethod = {
  rm_class : string;
  rm_name : string;
  rm_desc : string;
  rm_sig : Jtype.msig;
  rm_static : bool;
  rm_native : bool;
  rm_abstract : bool;
  rm_code : Bytecode.code option;
}

type rclass = {
  rc_name : string;
  rc_interface : bool;
  rc_abstract : bool;
  rc_super : string option;
  rc_interfaces : string list;
  (* Instance layout including inherited fields; slot = array index. *)
  mutable rc_layout : rfield array;
  mutable rc_layout_index : (string, int) Hashtbl.t;
  rc_static_index : (string, int) Hashtbl.t;
  mutable rc_statics : Pvalue.t array;
  (* Declared methods, keyed by name (overloads listed together). *)
  rc_methods : (string, rmethod list) Hashtbl.t;
  mutable rc_classfile : Classfile.t;
  mutable rc_initialized : bool;
}

type frame = {
  f_method : rmethod;
  f_locals : Pvalue.t array;
  mutable f_stack : Pvalue.t list;
}

type t = {
  session : Store.Session.t; (* the handle every VM read and write goes through *)
  classes : (string, rclass) Hashtbl.t;
  natives : (string, native_fn) Hashtbl.t; (* key: "Class#method#desc" *)
  mutable frames : frame list;
  string_literals : (string, Oid.t) Hashtbl.t;
  class_mirrors : (string, Oid.t) Hashtbl.t;
  member_mirrors : (string, Oid.t) Hashtbl.t; (* key: kind#class#name#desc *)
  out : Buffer.t;
  mutable echo : bool; (* also print System output to stdout *)
  mutable steps : int; (* executed instruction count *)
  mutable load_order : string list; (* classes in definition order *)
}

and native_fn = t -> Pvalue.t list -> Pvalue.t

let native_key cls name desc = cls ^ "#" ^ name ^ "#" ^ desc

let rec create store =
  let vm =
    {
      session = Store.default_session store;
      classes = Hashtbl.create 64;
      natives = Hashtbl.create 64;
      frames = [];
      string_literals = Hashtbl.create 64;
      class_mirrors = Hashtbl.create 16;
      member_mirrors = Hashtbl.create 16;
      out = Buffer.create 256;
      echo = false;
      steps = 0;
      load_order = [];
    }
  in
  Store.add_pin store (fun () -> pinned_oids vm);
  vm

(* Oids reachable only through VM state. *)
and pinned_oids vm =
  let acc = ref [] in
  let add v = match v with Pvalue.Ref oid -> acc := oid :: !acc | _ -> () in
  Hashtbl.iter (fun _ rc -> Array.iter add rc.rc_statics) vm.classes;
  List.iter
    (fun frame ->
      Array.iter add frame.f_locals;
      List.iter add frame.f_stack)
    vm.frames;
  Hashtbl.iter (fun _ oid -> acc := oid :: !acc) vm.string_literals;
  Hashtbl.iter (fun _ oid -> acc := oid :: !acc) vm.class_mirrors;
  Hashtbl.iter (fun _ oid -> acc := oid :: !acc) vm.member_mirrors;
  !acc

let register_native vm ~cls ~name ~desc fn =
  Hashtbl.replace vm.natives (native_key cls name desc) fn

let find_class vm name = Hashtbl.find_opt vm.classes name

let get_class vm name =
  match find_class vm name with
  | Some rc -> rc
  | None -> jerror "java.lang.NoClassDefFoundError" "class %s is not loaded" name

let is_loaded vm name = Hashtbl.mem vm.classes name

(* -- defining classes ----------------------------------------------------- *)

let rmethod_of_classfile cls (m : Classfile.meth) =
  {
    rm_class = cls;
    rm_name = m.Classfile.m_name;
    rm_desc = m.Classfile.m_desc;
    rm_sig = Jtype.msig_of_descriptor m.Classfile.m_desc;
    rm_static = m.Classfile.m_static;
    rm_native = m.Classfile.m_native;
    rm_abstract = m.Classfile.m_abstract;
    rm_code = m.Classfile.m_code;
  }

let default_value (ty : Jtype.t) =
  match ty with
  | Jtype.Boolean -> Pvalue.Bool false
  | Jtype.Byte -> Pvalue.Byte 0
  | Jtype.Short -> Pvalue.Short 0
  | Jtype.Char -> Pvalue.Char 0
  | Jtype.Int -> Pvalue.Int 0l
  | Jtype.Long -> Pvalue.Long 0L
  | Jtype.Float -> Pvalue.Float 0.
  | Jtype.Double -> Pvalue.Double 0.
  | Jtype.Class _ | Jtype.Array _ | Jtype.Null_t -> Pvalue.Null
  | Jtype.Void -> invalid_arg "default_value: void"

(* A class file's static fields, in slot order. *)
let static_fields (cf : Classfile.t) =
  List.filter (fun f -> f.Classfile.f_static) cf.Classfile.cf_fields

let fresh_statics cf =
  Array.of_list
    (List.map (fun f -> default_value (Jtype.of_descriptor f.Classfile.f_desc)) (static_fields cf))

let reset_statics rc =
  rc.rc_statics <- fresh_statics rc.rc_classfile;
  rc.rc_initialized <- false

(* Define a class from its class file.  The superclass must already be
   defined (the linker orders a batch accordingly). *)
let define_class vm (cf : Classfile.t) =
  let name = cf.Classfile.cf_name in
  if Hashtbl.mem vm.classes name then
    jerror "java.lang.LinkageError" "duplicate class definition %s" name;
  let super_layout =
    match cf.Classfile.cf_super with
    | None -> [||]
    | Some super -> (get_class vm super).rc_layout
  in
  let own_instance_fields =
    cf.Classfile.cf_fields
    |> List.filter (fun f -> not f.Classfile.f_static)
    |> List.map (fun f ->
           {
             rf_name = f.Classfile.f_name;
             rf_type = Jtype.of_descriptor f.Classfile.f_desc;
             rf_static = false;
           })
  in
  let layout = Array.append super_layout (Array.of_list own_instance_fields) in
  let layout_index = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace layout_index f.rf_name i) layout;
  let static_index = Hashtbl.create 8 in
  List.iteri
    (fun i f -> Hashtbl.replace static_index f.Classfile.f_name i)
    (static_fields cf);
  let methods = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let rm = rmethod_of_classfile name m in
      let existing = Option.value (Hashtbl.find_opt methods rm.rm_name) ~default:[] in
      Hashtbl.replace methods rm.rm_name (existing @ [ rm ]))
    cf.Classfile.cf_methods;
  let rc =
    {
      rc_name = name;
      rc_interface = cf.Classfile.cf_interface;
      rc_abstract = cf.Classfile.cf_abstract;
      rc_super = cf.Classfile.cf_super;
      rc_interfaces = cf.Classfile.cf_interfaces;
      rc_layout = layout;
      rc_layout_index = layout_index;
      rc_static_index = static_index;
      rc_statics = fresh_statics cf;
      rc_methods = methods;
      rc_classfile = cf;
      rc_initialized = false;
    }
  in
  Hashtbl.replace vm.classes name rc;
  vm.load_order <- vm.load_order @ [ name ];
  rc

(* -- member access --------------------------------------------------------- *)

let field_slot vm cls field =
  let rc = get_class vm cls in
  match Hashtbl.find_opt rc.rc_layout_index field with
  | Some slot -> slot
  | None -> jerror "java.lang.NoSuchFieldError" "%s.%s" cls field

let static_slot vm cls field =
  (* Walk the super chain: a static may be referenced via a subclass. *)
  let rec go name =
    let rc = get_class vm name in
    match Hashtbl.find_opt rc.rc_static_index field with
    | Some slot -> Some (rc, slot)
    | None -> (
      match rc.rc_super with
      | Some super -> go super
      | None -> None)
  in
  match go cls with
  | Some r -> r
  | None -> jerror "java.lang.NoSuchFieldError" "static %s.%s" cls field

let get_static vm cls field =
  let rc, slot = static_slot vm cls field in
  rc.rc_statics.(slot)

let set_static vm cls field v =
  let rc, slot = static_slot vm cls field in
  rc.rc_statics.(slot) <- v

(* Find a declared method (name + descriptor) on exactly this class. *)
let declared_method rc name desc =
  match Hashtbl.find_opt rc.rc_methods name with
  | None -> None
  | Some overloads -> List.find_opt (fun m -> String.equal m.rm_desc desc) overloads

(* Static / special resolution: walk the super chain. *)
let resolve_method vm cls name desc =
  let rec go cname =
    let rc = get_class vm cname in
    match declared_method rc name desc with
    | Some m -> Some m
    | None -> (
      match rc.rc_super with
      | Some super -> go super
      | None -> None)
  in
  match go cls with
  | Some m -> m
  | None -> jerror "java.lang.NoSuchMethodError" "%s.%s%s" cls name desc

(* Virtual dispatch: resolve starting from the receiver's runtime class. *)
let dispatch vm runtime_class name desc = resolve_method vm runtime_class name desc

(* -- the runtime class of a store value ------------------------------------ *)

(* Class of a record/array/string for dispatch purposes: arrays dispatch
   Object methods; strings dispatch on java.lang.String. *)
let dispatch_class_name vm v =
  match v with
  | Pvalue.Null -> npe ()
  | Pvalue.Ref oid -> begin
    match Store.Session.get vm.session oid with
    | Heap.Record r -> r.Heap.class_name
    | Heap.Str _ -> Jtype.string_class
    | Heap.Array _ -> Jtype.object_class
    | Heap.Weak _ -> "pstore.WeakReference"
  end
  | _ -> jerror "java.lang.InternalError" "cannot dispatch on a primitive"

(* -- strings ---------------------------------------------------------------- *)

let jstring vm s = Pvalue.Ref (Store.Session.alloc_string vm.session s)

let jstring_interned vm s =
  match Hashtbl.find_opt vm.string_literals s with
  | Some oid -> Pvalue.Ref oid
  | None ->
    let oid = Store.Session.alloc_string vm.session s in
    Hashtbl.replace vm.string_literals s oid;
    Pvalue.Ref oid

let ocaml_string vm v =
  match v with
  | Pvalue.Ref oid -> begin
    match Store.Session.get vm.session oid with
    | Heap.Str s -> s
    | _ -> jerror "java.lang.ClassCastException" "%s is not a String" (Oid.to_string oid)
  end
  | Pvalue.Null -> npe ()
  | _ -> jerror "java.lang.ClassCastException" "primitive is not a String"

(* -- object allocation ------------------------------------------------------ *)

let alloc_object vm cls =
  let rc = get_class vm cls in
  if rc.rc_interface then jerror "java.lang.InstantiationError" "interface %s" cls;
  let fields = Array.map (fun f -> default_value f.rf_type) rc.rc_layout in
  Pvalue.Ref (Store.Session.alloc_record vm.session cls fields)

let alloc_array vm elem_desc len =
  if len < 0 then jerror "java.lang.NegativeArraySizeException" "%d" len;
  let elem_ty = Jtype.of_descriptor elem_desc in
  let elems = Array.make len (default_value elem_ty) in
  Pvalue.Ref (Store.Session.alloc_array vm.session elem_desc elems)

(* -- subtyping at run time --------------------------------------------------- *)

let rec is_subtype vm ~sub ~super =
  (* sub and super are type descriptors *)
  if String.equal sub super then true
  else
    match Jtype.of_descriptor sub, Jtype.of_descriptor super with
    | Jtype.Class sname, Jtype.Class tname -> is_class_subtype vm sname tname
    | Jtype.Array a, Jtype.Array b -> begin
      match a, b with
      | Jtype.Class _, Jtype.Class _ | Jtype.Array _, _ | _, Jtype.Array _ ->
        is_subtype vm ~sub:(Jtype.descriptor a) ~super:(Jtype.descriptor b)
      | _ -> Jtype.equal a b
    end
    | Jtype.Array _, Jtype.Class tname -> String.equal tname Jtype.object_class
    | _ -> false

and is_class_subtype vm sname tname =
  if String.equal sname tname then true
  else begin
    match find_class vm sname with
    | None -> false
    | Some rc ->
      (match rc.rc_super with
      | Some super when is_class_subtype vm super tname -> true
      | _ -> List.exists (fun i -> is_class_subtype vm i tname) rc.rc_interfaces)
  end

(* Runtime check that a value conforms to a type descriptor. *)
let value_conforms vm v desc =
  match v with
  | Pvalue.Null -> true
  | Pvalue.Ref oid -> begin
    let actual =
      match Store.Session.get vm.session oid with
      | Heap.Record r -> Jtype.descriptor (Jtype.Class r.Heap.class_name)
      | Heap.Str _ -> Jtype.descriptor (Jtype.Class Jtype.string_class)
      | Heap.Array a -> "[" ^ a.Heap.elem_type
      | Heap.Weak _ -> Jtype.descriptor (Jtype.Class "pstore.WeakReference")
    in
    is_subtype vm ~sub:actual ~super:desc
  end
  | _ -> false

(* -- the class env the checker sees for loaded classes ---------------------- *)

let class_env vm =
  {
    Jtype.find_class =
      (fun name ->
        match find_class vm name with
        | Some rc -> Some (Classfile.to_class_info rc.rc_classfile)
        | None -> None);
  }

(* -- output ------------------------------------------------------------------ *)

let print_out vm s =
  Buffer.add_string vm.out s;
  if vm.echo then print_string s

let take_output vm =
  let s = Buffer.contents vm.out in
  Buffer.clear vm.out;
  s
