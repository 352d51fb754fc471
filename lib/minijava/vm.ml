(* The MiniJava bytecode interpreter.

   Numeric conventions: byte/short/char/int all live in the "int kind";
   arithmetic accepts any of them and produces Int, with Trunc wrapping
   values back into byte/short/char storage ranges.  Float arithmetic is
   rounded to 32-bit precision after every operation. *)

open Pstore

let max_frame_depth = 2048

let as_int v =
  match v with
  | Pvalue.Int n -> n
  | Pvalue.Byte n | Pvalue.Short n | Pvalue.Char n -> Int32.of_int n
  | _ -> Rt.jerror "java.lang.InternalError" "expected int-kind value, got %s" (Pvalue.to_string v)

let as_long = function
  | Pvalue.Long n -> n
  | v -> Rt.jerror "java.lang.InternalError" "expected long, got %s" (Pvalue.to_string v)

let as_float = function
  | Pvalue.Float f -> f
  | v -> Rt.jerror "java.lang.InternalError" "expected float, got %s" (Pvalue.to_string v)

let as_double = function
  | Pvalue.Double f -> f
  | v -> Rt.jerror "java.lang.InternalError" "expected double, got %s" (Pvalue.to_string v)

let as_bool = function
  | Pvalue.Bool b -> b
  | v -> Rt.jerror "java.lang.InternalError" "expected boolean, got %s" (Pvalue.to_string v)

let round_float f = Int32.float_of_bits (Int32.bits_of_float f)

(* Java-style string forms of primitive values. *)
let java_string_of_double f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let string_of_char_code c =
  if c < 128 then String.make 1 (Char.chr c)
  else if c < 0x800 then begin
    let b = Bytes.create 2 in
    Bytes.set b 0 (Char.chr (0xc0 lor (c lsr 6)));
    Bytes.set b 1 (Char.chr (0x80 lor (c land 0x3f)));
    Bytes.to_string b
  end
  else begin
    let b = Bytes.create 3 in
    Bytes.set b 0 (Char.chr (0xe0 lor (c lsr 12)));
    Bytes.set b 1 (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
    Bytes.set b 2 (Char.chr (0x80 lor (c land 0x3f)));
    Bytes.to_string b
  end

(* -- arithmetic -------------------------------------------------------- *)

let int_div a b =
  if Int32.equal b 0l then Rt.jerror "java.lang.ArithmeticException" "/ by zero"
  else Int32.div a b

let int_rem a b =
  if Int32.equal b 0l then Rt.jerror "java.lang.ArithmeticException" "%% by zero"
  else Int32.rem a b

let long_div a b =
  if Int64.equal b 0L then Rt.jerror "java.lang.ArithmeticException" "/ by zero"
  else Int64.div a b

let long_rem a b =
  if Int64.equal b 0L then Rt.jerror "java.lang.ArithmeticException" "%% by zero"
  else Int64.rem a b

let arith_int op a b =
  let a = as_int a and b = as_int b in
  Pvalue.Int
    (match op with
    | `Add -> Int32.add a b
    | `Sub -> Int32.sub a b
    | `Mul -> Int32.mul a b
    | `Div -> int_div a b
    | `Rem -> int_rem a b
    | `And -> Int32.logand a b
    | `Or -> Int32.logor a b
    | `Xor -> Int32.logxor a b
    | `Shl -> Int32.shift_left a (Int32.to_int b land 31)
    | `Shr -> Int32.shift_right a (Int32.to_int b land 31)
    | `Ushr -> Int32.shift_right_logical a (Int32.to_int b land 31))

let arith_long op a b =
  match op with
  | `Shl | `Shr | `Ushr ->
    let a = as_long a and b = Int32.to_int (as_int b) land 63 in
    Pvalue.Long
      (match op with
      | `Shl -> Int64.shift_left a b
      | `Shr -> Int64.shift_right a b
      | `Ushr -> Int64.shift_right_logical a b
      | _ -> assert false)
  | _ ->
    let a = as_long a and b = as_long b in
    Pvalue.Long
      (match op with
      | `Add -> Int64.add a b
      | `Sub -> Int64.sub a b
      | `Mul -> Int64.mul a b
      | `Div -> long_div a b
      | `Rem -> long_rem a b
      | `And -> Int64.logand a b
      | `Or -> Int64.logor a b
      | `Xor -> Int64.logxor a b
      | `Shl | `Shr | `Ushr -> assert false)

let arith_float op a b =
  let a = as_float a and b = as_float b in
  Pvalue.Float
    (round_float
       (match op with
       | `Add -> a +. b
       | `Sub -> a -. b
       | `Mul -> a *. b
       | `Div -> a /. b
       | `Rem -> Float.rem a b))

let arith_double op a b =
  let a = as_double a and b = as_double b in
  Pvalue.Double
    (match op with
    | `Add -> a +. b
    | `Sub -> a -. b
    | `Mul -> a *. b
    | `Div -> a /. b
    | `Rem -> Float.rem a b)

let compare_values kind op a b =
  let cmp c =
    match op with
    | Bytecode.Ceq -> c = 0
    | Bytecode.Cne -> c <> 0
    | Bytecode.Clt -> c < 0
    | Bytecode.Cle -> c <= 0
    | Bytecode.Cgt -> c > 0
    | Bytecode.Cge -> c >= 0
  in
  let result =
    match kind with
    | Bytecode.Cmp_int -> cmp (Int32.compare (as_int a) (as_int b))
    | Bytecode.Cmp_long -> cmp (Int64.compare (as_long a) (as_long b))
    | Bytecode.Cmp_float -> cmp (Float.compare (as_float a) (as_float b))
    | Bytecode.Cmp_double -> cmp (Float.compare (as_double a) (as_double b))
    | Bytecode.Cmp_bool -> cmp (Bool.compare (as_bool a) (as_bool b))
    | Bytecode.Cmp_ref -> begin
      let same =
        match a, b with
        | Pvalue.Null, Pvalue.Null -> true
        | Pvalue.Ref x, Pvalue.Ref y -> Oid.equal x y
        | _ -> false
      in
      match op with
      | Bytecode.Ceq -> same
      | Bytecode.Cne -> not same
      | _ -> Rt.jerror "java.lang.InternalError" "ordered comparison on references"
    end
  in
  Pvalue.Bool result

let convert src dst v =
  match src, dst with
  | Bytecode.Nint, Bytecode.Nlong -> Pvalue.Long (Int64.of_int32 (as_int v))
  | Bytecode.Nint, Bytecode.Nfloat -> Pvalue.Float (round_float (Int32.to_float (as_int v)))
  | Bytecode.Nint, Bytecode.Ndouble -> Pvalue.Double (Int32.to_float (as_int v))
  | Bytecode.Nlong, Bytecode.Nint -> Pvalue.Int (Int64.to_int32 (as_long v))
  | Bytecode.Nlong, Bytecode.Nfloat -> Pvalue.Float (round_float (Int64.to_float (as_long v)))
  | Bytecode.Nlong, Bytecode.Ndouble -> Pvalue.Double (Int64.to_float (as_long v))
  | Bytecode.Nfloat, Bytecode.Nint -> Pvalue.Int (Int32.of_float (as_float v))
  | Bytecode.Nfloat, Bytecode.Nlong -> Pvalue.Long (Int64.of_float (as_float v))
  | Bytecode.Nfloat, Bytecode.Ndouble -> Pvalue.Double (as_float v)
  | Bytecode.Ndouble, Bytecode.Nint -> Pvalue.Int (Int32.of_float (as_double v))
  | Bytecode.Ndouble, Bytecode.Nlong -> Pvalue.Long (Int64.of_float (as_double v))
  | Bytecode.Ndouble, Bytecode.Nfloat -> Pvalue.Float (round_float (as_double v))
  | Bytecode.Nint, Bytecode.Nint
  | Bytecode.Nlong, Bytecode.Nlong
  | Bytecode.Nfloat, Bytecode.Nfloat
  | Bytecode.Ndouble, Bytecode.Ndouble -> v

let truncate kind v =
  let n = Int32.to_int (as_int v) in
  match kind with
  | Bytecode.Tbyte ->
    let m = n land 0xff in
    Pvalue.Byte (if m > 127 then m - 256 else m)
  | Bytecode.Tshort ->
    let m = n land 0xffff in
    Pvalue.Short (if m > 32767 then m - 65536 else m)
  | Bytecode.Tchar -> Pvalue.Char (n land 0xffff)

(* -- execution ---------------------------------------------------------- *)

(* Calls a method with the given argument values (receiver first for
   instance methods).  Returns the method result (Null for void). *)
(* A Java exception in flight: carries the Throwable store object.  It
   unwinds OCaml-level across frames; each frame's interpreter loop
   consults its handler table as it passes. *)
exception Jthrow of Pvalue.t

(* Calls a method with the given argument values (receiver first for
   instance methods).  Returns the method result (Null for void). *)
let rec call_method vm (rm : Rt.rmethod) (args : Pvalue.t list) : Pvalue.t =
  if List.length vm.Rt.frames > max_frame_depth then
    Rt.jerror "java.lang.StackOverflowError" "frame depth exceeded in %s.%s" rm.Rt.rm_class
      rm.Rt.rm_name;
  match rm.Rt.rm_code with
  | None ->
    if rm.Rt.rm_native then begin
      let key = Rt.native_key rm.Rt.rm_class rm.Rt.rm_name rm.Rt.rm_desc in
      match Hashtbl.find_opt vm.Rt.natives key with
      | Some fn -> fn vm args
      | None -> Rt.jerror "java.lang.UnsatisfiedLinkError" "%s" key
    end
    else
      Rt.jerror "java.lang.AbstractMethodError" "%s.%s%s" rm.Rt.rm_class rm.Rt.rm_name
        rm.Rt.rm_desc
  | Some code -> begin
    let frame =
      {
        Rt.f_method = rm;
        f_locals = Array.make (max code.Bytecode.max_locals (List.length args)) Pvalue.Null;
        f_stack = [];
      }
    in
    List.iteri (fun i v -> frame.Rt.f_locals.(i) <- v) args;
    vm.Rt.frames <- frame :: vm.Rt.frames;
    Fun.protect
      ~finally:(fun () ->
        match vm.Rt.frames with
        | _ :: rest -> vm.Rt.frames <- rest
        | [] -> ())
      (fun () -> exec_frame vm frame code)
  end

(* Build a Throwable instance for an internal trap so compiled code can
   catch runtime errors as ordinary Java exceptions.  Falls back to the
   raw trap when the exception classes are not loaded (e.g. mid-boot) or
   construction itself fails. *)
and throwable_of_trap vm jclass message =
  if not (Rt.is_loaded vm jclass) then None
  else begin
    match
      let obj = Rt.alloc_object vm jclass in
      let ctor = Rt.resolve_method vm jclass "<init>" "(Ljava.lang.String;)V" in
      ignore (call_method vm ctor [ obj; Rt.jstring vm message ]);
      obj
    with
    | obj -> Some obj
    | exception _ -> None
  end

and exec_frame vm frame code =
  let instrs = code.Bytecode.instrs in
  let n = Array.length instrs in
  let push v = frame.Rt.f_stack <- v :: frame.Rt.f_stack in
  let pop () =
    match frame.Rt.f_stack with
    | v :: rest ->
      frame.Rt.f_stack <- rest;
      v
    | [] -> Rt.jerror "java.lang.InternalError" "operand stack underflow"
  in
  let pop_n count =
    let rec go count acc = if count = 0 then acc else go (count - 1) (pop () :: acc) in
    go count []
  in
  let pc = ref 0 in
  let result = ref None in
  (* Dispatch an in-flight exception against this frame's handler table;
     rethrows when no handler covers the pc. *)
  let dispatch_exception at obj =
    let covers h = at >= h.Bytecode.h_start && at < h.Bytecode.h_stop in
    let matches h = Rt.value_conforms vm obj h.Bytecode.h_desc in
    match List.find_opt (fun h -> covers h && matches h) code.Bytecode.handlers with
    | Some h ->
      frame.Rt.f_stack <- [];
      frame.Rt.f_locals.(h.Bytecode.h_slot) <- obj;
      pc := h.Bytecode.h_target
    | None -> raise (Jthrow obj)
  in
  let binop kind op =
    let b = pop () in
    let a = pop () in
    push
      (match kind with
      | Bytecode.Nint -> arith_int op a b
      | Bytecode.Nlong -> arith_long op a b
      | Bytecode.Nfloat -> begin
        match op with
        | (`Add | `Sub | `Mul | `Div | `Rem) as fop -> arith_float fop a b
        | `And | `Or | `Xor | `Shl | `Shr | `Ushr ->
          Rt.jerror "java.lang.InternalError" "bitwise op on float"
      end
      | Bytecode.Ndouble -> begin
        match op with
        | (`Add | `Sub | `Mul | `Div | `Rem) as fop -> arith_double fop a b
        | `And | `Or | `Xor | `Shl | `Shr | `Ushr ->
          Rt.jerror "java.lang.InternalError" "bitwise op on double"
      end)
  in
  (* Execute the instruction at !pc, updating pc / result. *)
  let step () =
    vm.Rt.steps <- vm.Rt.steps + 1;
    let continue_at target = pc := target in
    let next () = incr pc in
    match instrs.(!pc) with
    | Bytecode.Const c ->
      push
        (match c with
        | Bytecode.Kint n -> Pvalue.Int n
        | Bytecode.Klong n -> Pvalue.Long n
        | Bytecode.Kfloat f -> Pvalue.Float (round_float f)
        | Bytecode.Kdouble f -> Pvalue.Double f
        | Bytecode.Kbool b -> Pvalue.Bool b
        | Bytecode.Kchar c -> Pvalue.Char c
        | Bytecode.Kbyte b -> Pvalue.Byte b
        | Bytecode.Kshort s -> Pvalue.Short s
        | Bytecode.Kstr s -> Rt.jstring_interned vm s
        | Bytecode.Knull -> Pvalue.Null);
      next ()
    | Bytecode.Load slot ->
      push frame.Rt.f_locals.(slot);
      next ()
    | Bytecode.Store slot ->
      (* leaves the value on the stack, see Compile *)
      let v = pop () in
      frame.Rt.f_locals.(slot) <- v;
      push v;
      next ()
    | Bytecode.Dup ->
      let v = pop () in
      push v;
      push v;
      next ()
    | Bytecode.Pop ->
      ignore (pop ());
      next ()
    | Bytecode.Add k -> binop k `Add; next ()
    | Bytecode.Sub k -> binop k `Sub; next ()
    | Bytecode.Mul k -> binop k `Mul; next ()
    | Bytecode.Div k -> binop k `Div; next ()
    | Bytecode.Rem k -> binop k `Rem; next ()
    | Bytecode.Band k -> binop k `And; next ()
    | Bytecode.Bor k -> binop k `Or; next ()
    | Bytecode.Bxor k -> binop k `Xor; next ()
    | Bytecode.Shl k -> binop k `Shl; next ()
    | Bytecode.Shr k -> binop k `Shr; next ()
    | Bytecode.Ushr k -> binop k `Ushr; next ()
    | Bytecode.Neg k ->
      let v = pop () in
      push
        (match k with
        | Bytecode.Nint -> Pvalue.Int (Int32.neg (as_int v))
        | Bytecode.Nlong -> Pvalue.Long (Int64.neg (as_long v))
        | Bytecode.Nfloat -> Pvalue.Float (round_float (-.as_float v))
        | Bytecode.Ndouble -> Pvalue.Double (-.as_double v));
      next ()
    | Bytecode.Bnot k ->
      let v = pop () in
      push
        (match k with
        | Bytecode.Nint -> Pvalue.Int (Int32.lognot (as_int v))
        | Bytecode.Nlong -> Pvalue.Long (Int64.lognot (as_long v))
        | Bytecode.Nfloat | Bytecode.Ndouble ->
          Rt.jerror "java.lang.InternalError" "~ on floating point");
      next ()
    | Bytecode.Conv (src, dst) ->
      let v = pop () in
      push (convert src dst v);
      next ()
    | Bytecode.Trunc kind ->
      let v = pop () in
      push (truncate kind v);
      next ()
    | Bytecode.Not ->
      let v = pop () in
      push (Pvalue.Bool (not (as_bool v)));
      next ()
    | Bytecode.Cmp (op, kind) ->
      let b = pop () in
      let a = pop () in
      push (compare_values kind op a b);
      next ()
    | Bytecode.Concat ->
      (* A null String operand concatenates as "null", as in Java. *)
      let operand = function
        | Pvalue.Null -> "null"
        | v -> Rt.ocaml_string vm v
      in
      let b = pop () in
      let a = pop () in
      push (Rt.jstring vm (operand a ^ operand b));
      next ()
    | Bytecode.To_string ->
      let v = pop () in
      push (Rt.jstring vm (to_string vm v));
      next ()
    | Bytecode.Get_static (c, f) ->
      ensure_initialized vm c;
      push (Rt.get_static vm c f);
      next ()
    | Bytecode.Put_static (c, f) ->
      ensure_initialized vm c;
      let v = pop () in
      Rt.set_static vm c f v;
      push v;
      next ()
    | Bytecode.Get_field (c, f) -> begin
      let recv = pop () in
      match recv with
      | Pvalue.Ref oid ->
        let slot = Rt.field_slot vm c f in
        push (Store.Session.field vm.Rt.session oid slot);
        next ()
      | Pvalue.Null -> Rt.npe ()
      | _ -> Rt.jerror "java.lang.InternalError" "getfield on non-object"
    end
    | Bytecode.Put_field (c, f) -> begin
      let v = pop () in
      let recv = pop () in
      match recv with
      | Pvalue.Ref oid ->
        let slot = Rt.field_slot vm c f in
        Store.Session.set_field vm.Rt.session oid slot v;
        push v;
        next ()
      | Pvalue.Null -> Rt.npe ()
      | _ -> Rt.jerror "java.lang.InternalError" "putfield on non-object"
    end
    | Bytecode.Array_load -> begin
      let idx = Int32.to_int (as_int (pop ())) in
      match pop () with
      | Pvalue.Ref oid ->
        let len = Store.Session.array_length vm.Rt.session oid in
        if idx < 0 || idx >= len then
          Rt.jerror "java.lang.ArrayIndexOutOfBoundsException" "%d (length %d)" idx len;
        push (Store.Session.elem vm.Rt.session oid idx);
        next ()
      | Pvalue.Null -> Rt.npe ()
      | _ -> Rt.jerror "java.lang.InternalError" "aload on non-array"
    end
    | Bytecode.Array_store -> begin
      let v = pop () in
      let idx = Int32.to_int (as_int (pop ())) in
      match pop () with
      | Pvalue.Ref oid ->
        let arr = Store.Session.get_array vm.Rt.session oid in
        let len = Array.length arr.Heap.elems in
        if idx < 0 || idx >= len then
          Rt.jerror "java.lang.ArrayIndexOutOfBoundsException" "%d (length %d)" idx len;
        (* Arrays are covariant, so reference stores are checked against
           the array's actual element type, as in Java. *)
        (match v with
        | Pvalue.Ref _ when not (Rt.value_conforms vm v arr.Heap.elem_type) ->
          Rt.jerror "java.lang.ArrayStoreException" "cannot store %s into %s[]"
            (Rt.dispatch_class_name vm v)
            (Jtype.to_string (Jtype.of_descriptor arr.Heap.elem_type))
        | _ -> ());
        Store.Session.set_elem vm.Rt.session oid idx v;
        push v;
        next ()
      | Pvalue.Null -> Rt.npe ()
      | _ -> Rt.jerror "java.lang.InternalError" "astore on non-array"
    end
    | Bytecode.Array_len -> begin
      match pop () with
      | Pvalue.Ref oid ->
        push (Pvalue.Int (Int32.of_int (Store.Session.array_length vm.Rt.session oid)));
        next ()
      | Pvalue.Null -> Rt.npe ()
      | _ -> Rt.jerror "java.lang.InternalError" "arraylen on non-array"
    end
    | Bytecode.New_obj cls ->
      ensure_initialized vm cls;
      push (Rt.alloc_object vm cls);
      next ()
    | Bytecode.New_array elem_desc ->
      let len = Int32.to_int (as_int (pop ())) in
      push (Rt.alloc_array vm elem_desc len);
      next ()
    | Bytecode.New_multi_array (desc, dims) ->
      let sizes = List.map (fun v -> Int32.to_int (as_int v)) (pop_n dims) in
      push (alloc_multi vm desc sizes);
      next ()
    | Bytecode.Invoke_static (c, m, d) ->
      ensure_initialized vm c;
      let rm = Rt.resolve_method vm c m d in
      let args = pop_n (List.length rm.Rt.rm_sig.Jtype.params) in
      let result = call_method vm rm args in
      if not (Jtype.equal rm.Rt.rm_sig.Jtype.ret Jtype.Void) then push result;
      next ()
    | Bytecode.Invoke_virtual (c, m, d) ->
      let rm_static = Rt.resolve_method vm c m d in
      let argc = List.length rm_static.Rt.rm_sig.Jtype.params in
      let args = pop_n argc in
      let recv = pop () in
      let dispatch_cls = Rt.dispatch_class_name vm recv in
      let rm = Rt.dispatch vm dispatch_cls m d in
      let result = call_method vm rm (recv :: args) in
      if not (Jtype.equal rm.Rt.rm_sig.Jtype.ret Jtype.Void) then push result;
      next ()
    | Bytecode.Invoke_special (c, d) ->
      let rm = Rt.resolve_method vm c "<init>" d in
      let args = pop_n (List.length rm.Rt.rm_sig.Jtype.params) in
      let recv = pop () in
      ignore (call_method vm rm (recv :: args));
      next ()
    | Bytecode.Check_cast desc -> begin
      let v = pop () in
      match v with
      | Pvalue.Null ->
        push v;
        next ()
      | _ ->
        if Rt.value_conforms vm v desc then begin
          push v;
          next ()
        end
        else
          Rt.jerror "java.lang.ClassCastException" "cannot cast %s to %s"
            (Rt.dispatch_class_name vm v) desc
    end
    | Bytecode.Instance_of desc ->
      let v = pop () in
      push
        (Pvalue.Bool
           (match v with
           | Pvalue.Null -> false
           | _ -> Rt.value_conforms vm v desc));
      next ()
    | Bytecode.Jump t -> continue_at t
    | Bytecode.Jump_if_false t -> if as_bool (pop ()) then next () else continue_at t
    | Bytecode.Jump_if_true t -> if as_bool (pop ()) then continue_at t else next ()
    | Bytecode.Ret -> result := Some Pvalue.Null
    | Bytecode.Ret_val -> result := Some (pop ())
    | Bytecode.Throw -> begin
      match pop () with
      | Pvalue.Null -> Rt.npe ()
      | obj -> raise (Jthrow obj)
    end
    | Bytecode.Trap msg -> Rt.jerror "java.lang.InternalError" "%s" msg
  in
  while !result = None do
    if !pc >= n then
      Rt.jerror "java.lang.InternalError" "fell off the end of %s.%s"
        frame.Rt.f_method.Rt.rm_class frame.Rt.f_method.Rt.rm_name;
    let at = !pc in
    try step () with
    | Jthrow obj -> dispatch_exception at obj
    | Rt.Jerror { jclass; message; _ } as trap -> begin
      (* Internal traps become catchable Java exceptions when possible. *)
      match throwable_of_trap vm jclass message with
      | Some obj -> dispatch_exception at obj
      | None -> raise trap
    end
  done;
  match !result with
  | Some v -> v
  | None -> assert false

and alloc_multi vm desc sizes =
  match sizes with
  | [] -> invalid_arg "alloc_multi: no dimensions"
  | [ len ] ->
    let elem_desc = String.sub desc 1 (String.length desc - 1) in
    Rt.alloc_array vm elem_desc len
  | len :: rest ->
    let elem_desc = String.sub desc 1 (String.length desc - 1) in
    let arr = Rt.alloc_array vm elem_desc len in
    (match arr with
    | Pvalue.Ref oid ->
      for i = 0 to len - 1 do
        Store.Session.set_elem vm.Rt.session oid i (alloc_multi vm elem_desc rest)
      done
    | _ -> assert false);
    arr

(* Run <clinit> on first active use, super classes first. *)
and ensure_initialized vm cls =
  match Rt.find_class vm cls with
  | None -> Rt.jerror "java.lang.NoClassDefFoundError" "%s" cls
  | Some rc ->
    if not rc.Rt.rc_initialized then begin
      rc.Rt.rc_initialized <- true;
      (match rc.Rt.rc_super with
      | Some super -> ensure_initialized vm super
      | None -> ());
      match Rt.declared_method rc "<clinit>" "()V" with
      | Some clinit -> ignore (call_method vm clinit [])
      | None -> ()
    end

(* The string form of any value; objects dispatch toString(). *)
and to_string vm v =
  match v with
  | Pvalue.Null -> "null"
  | Pvalue.Bool b -> if b then "true" else "false"
  | Pvalue.Byte n | Pvalue.Short n -> string_of_int n
  | Pvalue.Char c -> string_of_char_code c
  | Pvalue.Int n -> Int32.to_string n
  | Pvalue.Long n -> Int64.to_string n
  | Pvalue.Float f | Pvalue.Double f -> java_string_of_double f
  | Pvalue.Ref oid -> begin
    match Store.Session.get vm.Rt.session oid with
    | Heap.Str s -> s
    | Heap.Record _ -> begin
      let cls = Rt.dispatch_class_name vm v in
      let rm = Rt.dispatch vm cls "toString" "()Ljava.lang.String;" in
      Rt.ocaml_string vm (call_method vm rm [ v ])
    end
    | Heap.Array a ->
      Printf.sprintf "%s[]@%d" a.Heap.elem_type (Oid.to_int oid)
    | Heap.Weak _ -> Printf.sprintf "weak@%d" (Oid.to_int oid)
  end

(* -- public call interface ------------------------------------------------ *)

(* An uncaught Java exception crossing back into OCaml is reported as the
   classic trap, carrying the Throwable's class and message. *)
let jerror_of_throwable vm obj =
  let jclass =
    match Rt.dispatch_class_name vm obj with
    | cls -> cls
    | exception _ -> "java.lang.Throwable"
  in
  let message =
    match obj with
    | Pvalue.Ref oid -> begin
      match
        Store.Session.field vm.Rt.session oid (Rt.field_slot vm "java.lang.Throwable" "message")
      with
      | Pvalue.Ref s -> (try Store.Session.get_string vm.Rt.session s with _ -> "")
      | _ -> ""
      | exception _ -> ""
    end
    | _ -> ""
  in
  Rt.Jerror { jclass; message; stack = [] }

let protect vm f =
  try f () with Jthrow obj -> raise (jerror_of_throwable vm obj)

let call_static vm ~cls ~name ~desc args =
  protect vm (fun () ->
  ensure_initialized vm cls;
  let rm = Rt.resolve_method vm cls name desc in
  if not rm.Rt.rm_static then
    Rt.jerror "java.lang.IncompatibleClassChangeError" "%s.%s is not static" cls name;
  call_method vm rm args)

let call_virtual vm ~recv ~name ~desc args =
  protect vm (fun () ->
      let cls = Rt.dispatch_class_name vm recv in
      let rm = Rt.dispatch vm cls name desc in
      call_method vm rm (recv :: args))

(* Instantiate with an explicit constructor descriptor. *)
let new_instance vm ~cls ~desc args =
  protect vm (fun () ->
      ensure_initialized vm cls;
      let obj = Rt.alloc_object vm cls in
      let ctor = Rt.resolve_method vm cls "<init>" desc in
      ignore (call_method vm ctor (obj :: args));
      obj)

(* Run `public static void main(String[] args)` of a class. *)
let run_main vm ~cls (argv : string list) =
  protect vm @@ fun () ->
  ensure_initialized vm cls;
  let arg_values = List.map (fun s -> Rt.jstring vm s) argv in
  let arr =
    Store.Session.alloc_array vm.Rt.session
      (Jtype.descriptor (Jtype.Class Jtype.string_class))
      (Array.of_list arg_values)
  in
  ignore
    (call_static vm ~cls ~name:"main"
       ~desc:(Jtype.msig_descriptor
                {
                  Jtype.params = [ Jtype.Array (Jtype.Class Jtype.string_class) ];
                  ret = Jtype.Void;
                })
       [ Pvalue.Ref arr ])
