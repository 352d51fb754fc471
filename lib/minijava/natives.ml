(* Native method implementations for the bootstrap classes — the JNI
   analog.  Strings are byte strings (char = one byte for ASCII text);
   reflection natives delegate to Reflect. *)

open Pstore

let str = Jtype.string_class
let str_desc = "Ljava.lang.String;"
let obj_desc = "Ljava.lang.Object;"
let class_desc = "Ljava.lang.Class;"
let method_desc = "Ljava.lang.reflect.Method;"
let field_desc = "Ljava.lang.reflect.Field;"
let ctor_desc = "Ljava.lang.reflect.Constructor;"

let bad_args () = Rt.jerror "java.lang.InternalError" "native: wrong arguments"

let arg1 = function
  | [ a ] -> a
  | _ -> bad_args ()

let arg2 = function
  | [ a; b ] -> (a, b)
  | _ -> bad_args ()

let arg3 = function
  | [ a; b; c ] -> (a, b, c)
  | _ -> bad_args ()

let as_int = Vm.as_int

let elems_of_array vm v =
  match v with
  | Pvalue.Null -> []
  | Pvalue.Ref oid -> Array.to_list (Store.Session.get_array vm.Rt.session oid).Heap.elems
  | _ -> bad_args ()

let mirror_array vm elem_desc mirrors =
  Pvalue.Ref (Store.Session.alloc_array vm.Rt.session elem_desc (Array.of_list mirrors))

let install vm =
  let reg cls name desc fn = Rt.register_native vm ~cls ~name ~desc fn in

  (* -- java.lang.Object ------------------------------------------------- *)
  reg "java.lang.Object" "hashCode" "()I" (fun _vm args ->
      match arg1 args with
      | Pvalue.Ref oid -> Pvalue.Int (Int32.of_int (Pstore.Oid.to_int oid))
      | _ -> Rt.npe ());
  reg "java.lang.Object" "getClass" ("()" ^ class_desc) (fun vm args ->
      Reflect.class_mirror vm (Rt.dispatch_class_name vm (arg1 args)));
  reg "java.lang.Object" "toString" ("()" ^ str_desc) (fun vm args ->
      match arg1 args with
      | Pvalue.Ref oid as v ->
        Rt.jstring vm
          (Printf.sprintf "%s@%d" (Rt.dispatch_class_name vm v) (Pstore.Oid.to_int oid))
      | _ -> Rt.npe ());

  (* -- java.lang.String -------------------------------------------------- *)
  reg str "length" "()I" (fun vm args ->
      Pvalue.Int (Int32.of_int (String.length (Rt.ocaml_string vm (arg1 args)))));
  reg str "charAt" "(I)C" (fun vm args ->
      let this, idx = arg2 args in
      let s = Rt.ocaml_string vm this in
      let i = Int32.to_int (as_int idx) in
      if i < 0 || i >= String.length s then
        Rt.jerror "java.lang.StringIndexOutOfBoundsException" "%d" i;
      Pvalue.Char (Char.code s.[i]));
  reg str "substring" ("(II)" ^ str_desc) (fun vm args ->
      let this, b, e = arg3 args in
      let s = Rt.ocaml_string vm this in
      let b = Int32.to_int (as_int b) and e = Int32.to_int (as_int e) in
      if b < 0 || e > String.length s || b > e then
        Rt.jerror "java.lang.StringIndexOutOfBoundsException" "%d..%d" b e;
      Rt.jstring vm (String.sub s b (e - b)));
  reg str "concat" ("(" ^ str_desc ^ ")" ^ str_desc) (fun vm args ->
      let this, other = arg2 args in
      Rt.jstring vm (Rt.ocaml_string vm this ^ Rt.ocaml_string vm other));
  reg str "indexOf" ("(" ^ str_desc ^ ")I") (fun vm args ->
      let this, sub = arg2 args in
      let s = Rt.ocaml_string vm this and sub = Rt.ocaml_string vm sub in
      let n = String.length s and m = String.length sub in
      let rec go i =
        if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
      in
      Pvalue.Int (Int32.of_int (go 0)));
  reg str "startsWith" ("(" ^ str_desc ^ ")Z") (fun vm args ->
      let this, p = arg2 args in
      let s = Rt.ocaml_string vm this and p = Rt.ocaml_string vm p in
      Pvalue.Bool (String.length p <= String.length s && String.sub s 0 (String.length p) = p));
  reg str "endsWith" ("(" ^ str_desc ^ ")Z") (fun vm args ->
      let this, p = arg2 args in
      let s = Rt.ocaml_string vm this and p = Rt.ocaml_string vm p in
      let n = String.length s and m = String.length p in
      Pvalue.Bool (m <= n && String.sub s (n - m) m = p));
  reg str "equals" ("(" ^ obj_desc ^ ")Z") (fun vm args ->
      let this, other = arg2 args in
      let s = Rt.ocaml_string vm this in
      match other with
      | Pvalue.Ref oid -> begin
        match Store.Session.get vm.Rt.session oid with
        | Heap.Str t -> Pvalue.Bool (String.equal s t)
        | _ -> Pvalue.Bool false
      end
      | _ -> Pvalue.Bool false);
  reg str "hashCode" "()I" (fun vm args ->
      let s = Rt.ocaml_string vm (arg1 args) in
      (* Java's s[0]*31^(n-1) + ... formula, 32-bit wrapping. *)
      let h = ref 0l in
      String.iter
        (fun c -> h := Int32.add (Int32.mul !h 31l) (Int32.of_int (Char.code c)))
        s;
      Pvalue.Int !h);
  reg str "compareTo" ("(" ^ str_desc ^ ")I") (fun vm args ->
      let this, other = arg2 args in
      Pvalue.Int
        (Int32.of_int (String.compare (Rt.ocaml_string vm this) (Rt.ocaml_string vm other))));
  reg str "lastIndexOf" ("(" ^ str_desc ^ ")I") (fun vm args ->
      let this, sub = arg2 args in
      let s = Rt.ocaml_string vm this and sub = Rt.ocaml_string vm sub in
      let n = String.length s and m = String.length sub in
      let rec go i = if i < 0 then -1 else if String.sub s i m = sub then i else go (i - 1) in
      Pvalue.Int (Int32.of_int (if m > n then -1 else go (n - m))));
  reg str "trim" ("()" ^ str_desc) (fun vm args ->
      Rt.jstring vm (String.trim (Rt.ocaml_string vm (arg1 args))));
  reg str "toUpperCase" ("()" ^ str_desc) (fun vm args ->
      Rt.jstring vm (String.uppercase_ascii (Rt.ocaml_string vm (arg1 args))));
  reg str "toLowerCase" ("()" ^ str_desc) (fun vm args ->
      Rt.jstring vm (String.lowercase_ascii (Rt.ocaml_string vm (arg1 args))));
  reg str "replace" ("(CC)" ^ str_desc) (fun vm args ->
      let this, a, b = arg3 args in
      let s = Rt.ocaml_string vm this in
      let from_code =
        match a with Pvalue.Char c -> c | v -> Int32.to_int (as_int v)
      in
      let to_code = match b with Pvalue.Char c -> c | v -> Int32.to_int (as_int v) in
      if from_code < 256 && to_code < 256 then
        Rt.jstring vm
          (String.map (fun c -> if Char.code c = from_code then Char.chr to_code else c) s)
      else Rt.jstring vm s);
  List.iter
    (fun (desc, conv) -> reg str "valueOf" desc (fun vm args -> conv vm (arg1 args)))
    [
      ("(I)" ^ str_desc, fun vm v -> Rt.jstring vm (Int32.to_string (as_int v)));
      ( "(J)" ^ str_desc,
        fun vm v ->
          match v with
          | Pvalue.Long n -> Rt.jstring vm (Int64.to_string n)
          | _ -> bad_args () );
      ( "(D)" ^ str_desc,
        fun vm v ->
          match v with
          | Pvalue.Double f | Pvalue.Float f -> Rt.jstring vm (Vm.java_string_of_double f)
          | _ -> bad_args () );
      ( "(Z)" ^ str_desc,
        fun vm v ->
          match v with
          | Pvalue.Bool b -> Rt.jstring vm (if b then "true" else "false")
          | _ -> bad_args () );
      ( "(C)" ^ str_desc,
        fun vm v ->
          match v with
          | Pvalue.Char c -> Rt.jstring vm (Vm.string_of_char_code c)
          | _ -> bad_args () );
      ("(" ^ obj_desc ^ ")" ^ str_desc, fun vm v -> Rt.jstring vm (Vm.to_string vm v));
    ];

  (* -- java.lang.System --------------------------------------------------- *)
  reg "java.lang.System" "println" ("(" ^ str_desc ^ ")V") (fun vm args ->
      (match arg1 args with
      | Pvalue.Null -> Rt.print_out vm "null\n"
      | v -> Rt.print_out vm (Rt.ocaml_string vm v ^ "\n"));
      Pvalue.Null);
  reg "java.lang.System" "print" ("(" ^ str_desc ^ ")V") (fun vm args ->
      (match arg1 args with
      | Pvalue.Null -> Rt.print_out vm "null"
      | v -> Rt.print_out vm (Rt.ocaml_string vm v));
      Pvalue.Null);
  reg "java.lang.System" "currentTimeMillis" "()J" (fun _vm args ->
      (match args with [] -> () | _ -> bad_args ());
      Pvalue.Long (Int64.of_float (Unix.gettimeofday () *. 1000.)));
  reg "java.lang.System" "gc" "()V" (fun vm args ->
      (match args with [] -> () | _ -> bad_args ());
      ignore (Store.gc (Store.Session.store vm.Rt.session));
      Pvalue.Null);

  (* -- java.lang.Math ------------------------------------------------------ *)
  let as_double = function
    | Pvalue.Double f | Pvalue.Float f -> f
    | _ -> bad_args ()
  in
  reg "java.lang.Math" "sqrt" "(D)D" (fun _vm args ->
      Pvalue.Double (sqrt (as_double (arg1 args))));
  reg "java.lang.Math" "floor" "(D)D" (fun _vm args ->
      Pvalue.Double (floor (as_double (arg1 args))));
  reg "java.lang.Math" "ceil" "(D)D" (fun _vm args ->
      Pvalue.Double (ceil (as_double (arg1 args))));
  reg "java.lang.Math" "pow" "(DD)D" (fun _vm args ->
      let a, b = arg2 args in
      Pvalue.Double (Float.pow (as_double a) (as_double b)));

  (* -- java.lang.Integer ----------------------------------------------------- *)
  reg "java.lang.Integer" "parseInt" ("(" ^ str_desc ^ ")I") (fun vm args ->
      let s = Rt.ocaml_string vm (arg1 args) in
      match Int32.of_string_opt s with
      | Some n -> Pvalue.Int n
      | None -> Rt.jerror "java.lang.NumberFormatException" "%S" s);

  (* -- java.lang.Class --------------------------------------------------------- *)
  let mirror_name vm v = Reflect.mirror_field vm Reflect.class_class v "name" in
  reg "java.lang.Class" "getName" ("()" ^ str_desc) (fun vm args ->
      Rt.jstring vm (mirror_name vm (arg1 args)));
  reg "java.lang.Class" "newInstance" ("()" ^ obj_desc) (fun vm args ->
      Vm.new_instance vm ~cls:(mirror_name vm (arg1 args)) ~desc:"()V" []);
  reg "java.lang.Class" "forName" ("(" ^ str_desc ^ ")" ^ class_desc) (fun vm args ->
      let name = Rt.ocaml_string vm (arg1 args) in
      if not (Rt.is_loaded vm name) then
        Rt.jerror "java.lang.ClassNotFoundException" "%s" name;
      Reflect.class_mirror vm name);
  reg "java.lang.Class" "getMethod" ("(" ^ str_desc ^ ")" ^ method_desc) (fun vm args ->
      let this, name_v = arg2 args in
      let cls = mirror_name vm this in
      let name = Rt.ocaml_string vm name_v in
      let methods = Reflect.methods_of_class vm cls ~include_inherited:true in
      match List.find_opt (fun m -> String.equal m.Rt.rm_name name) methods with
      | Some m -> Reflect.method_mirror vm ~cls:m.Rt.rm_class ~name ~desc:m.Rt.rm_desc
      | None -> Rt.jerror "java.lang.NoSuchMethodException" "%s.%s" cls name);
  reg "java.lang.Class" "getMethods" ("()[" ^ method_desc) (fun vm args ->
      let cls = mirror_name vm (arg1 args) in
      let methods = Reflect.methods_of_class vm cls ~include_inherited:true in
      mirror_array vm method_desc
        (List.map
           (fun m ->
             Reflect.method_mirror vm ~cls:m.Rt.rm_class ~name:m.Rt.rm_name ~desc:m.Rt.rm_desc)
           methods));
  reg "java.lang.Class" "getField" ("(" ^ str_desc ^ ")" ^ field_desc) (fun vm args ->
      let this, name_v = arg2 args in
      let cls = mirror_name vm this in
      let name = Rt.ocaml_string vm name_v in
      let rc = Rt.get_class vm cls in
      let found =
        match Hashtbl.find_opt rc.Rt.rc_layout_index name with
        | Some slot -> Some rc.Rt.rc_layout.(slot)
        | None -> begin
          match Hashtbl.find_opt rc.Rt.rc_static_index name with
          | Some _ ->
            let cf_field =
              List.find_opt
                (fun f -> String.equal f.Classfile.f_name name)
                rc.Rt.rc_classfile.Classfile.cf_fields
            in
            Option.map
              (fun f ->
                {
                  Rt.rf_name = name;
                  rf_type = Jtype.of_descriptor f.Classfile.f_desc;
                  rf_static = true;
                })
              cf_field
          | None -> None
        end
      in
      match found with
      | Some rf ->
        Reflect.field_mirror vm ~cls ~name ~desc:(Jtype.descriptor rf.Rt.rf_type)
      | None -> Rt.jerror "java.lang.NoSuchFieldException" "%s.%s" cls name);
  reg "java.lang.Class" "getFields" ("()[" ^ field_desc) (fun vm args ->
      let cls = mirror_name vm (arg1 args) in
      let fields = Reflect.fields_of_class vm cls in
      mirror_array vm field_desc
        (List.map
           (fun rf ->
             Reflect.field_mirror vm ~cls ~name:rf.Rt.rf_name
               ~desc:(Jtype.descriptor rf.Rt.rf_type))
           fields));
  reg "java.lang.Class" "getConstructors" ("()[" ^ ctor_desc) (fun vm args ->
      let cls = mirror_name vm (arg1 args) in
      let rc = Rt.get_class vm cls in
      let ctors = Option.value (Hashtbl.find_opt rc.Rt.rc_methods "<init>") ~default:[] in
      mirror_array vm ctor_desc
        (List.map (fun m -> Reflect.ctor_mirror vm ~cls ~desc:m.Rt.rm_desc) ctors));
  reg "java.lang.Class" "getSuperclass" ("()" ^ class_desc) (fun vm args ->
      let cls = mirror_name vm (arg1 args) in
      match (Rt.get_class vm cls).Rt.rc_super with
      | Some super -> Reflect.class_mirror vm super
      | None -> Pvalue.Null);
  reg "java.lang.Class" "isInterface" "()Z" (fun vm args ->
      Pvalue.Bool (Rt.get_class vm (mirror_name vm (arg1 args))).Rt.rc_interface);

  (* -- java.lang.reflect.Method ------------------------------------------------ *)
  let member_str vm mcls v f = Reflect.mirror_field vm mcls v f in
  reg Reflect.method_class "getName" ("()" ^ str_desc) (fun vm args ->
      Rt.jstring vm (member_str vm Reflect.method_class (arg1 args) "name"));
  reg Reflect.method_class "getDeclaringClass" ("()" ^ class_desc) (fun vm args ->
      Reflect.class_mirror vm (member_str vm Reflect.method_class (arg1 args) "declClass"));
  reg Reflect.method_class "invoke"
    ("(" ^ obj_desc ^ "[" ^ obj_desc ^ ")" ^ obj_desc)
    (fun vm args ->
      let mirror, receiver, arr = arg3 args in
      Reflect.invoke vm ~method_mirror_value:mirror ~receiver ~args:(elems_of_array vm arr));

  (* -- java.lang.reflect.Field --------------------------------------------------- *)
  reg Reflect.field_class "getName" ("()" ^ str_desc) (fun vm args ->
      Rt.jstring vm (member_str vm Reflect.field_class (arg1 args) "name"));
  reg Reflect.field_class "getDeclaringClass" ("()" ^ class_desc) (fun vm args ->
      Reflect.class_mirror vm (member_str vm Reflect.field_class (arg1 args) "declClass"));
  reg Reflect.field_class "get" ("(" ^ obj_desc ^ ")" ^ obj_desc) (fun vm args ->
      let mirror, receiver = arg2 args in
      Reflect.field_get vm ~field_mirror_value:mirror ~receiver);
  reg Reflect.field_class "set" ("(" ^ obj_desc ^ obj_desc ^ ")V") (fun vm args ->
      let mirror, receiver, value = arg3 args in
      Reflect.field_set vm ~field_mirror_value:mirror ~receiver ~value;
      Pvalue.Null);

  (* -- java.lang.reflect.Constructor ----------------------------------------------- *)
  reg Reflect.ctor_class "getDeclaringClass" ("()" ^ class_desc) (fun vm args ->
      Reflect.class_mirror vm (member_str vm Reflect.ctor_class (arg1 args) "declClass"));
  reg Reflect.ctor_class "newInstance" ("([" ^ obj_desc ^ ")" ^ obj_desc) (fun vm args ->
      let mirror, arr = arg2 args in
      Reflect.ctor_new_instance vm ~ctor_mirror_value:mirror ~args:(elems_of_array vm arr))
