(* The MiniJava type checker: resolves names, checks types, inserts
   implicit conversions, lowers field initialisers into constructors and
   <clinit>, and produces the typed AST consumed by the bytecode compiler.

   Name resolution is the context-sensitive part: a dotted name is
   disambiguated as local variable / field / class prefix + member chain,
   trying the longest resolvable class prefix first.  Imports, same-unit
   classes and an implicit java.lang.* import are supported. *)

exception Type_error of Lexer.pos * string

let type_error pos fmt = Format.kasprintf (fun s -> raise (Type_error (pos, s))) fmt

(* ---------------------------------------------------------------------- *)
(* Class environment: unit-local classes chained with the external env.   *)
(* ---------------------------------------------------------------------- *)

type genv = {
  env : Jtype.class_env; (* includes unit-local classes *)
  resolve : Lexer.pos -> string list -> string; (* type-name resolution *)
}

let find_class genv pos name =
  match genv.env.Jtype.find_class name with
  | Some ci -> ci
  | None -> type_error pos "unknown class %s" name

(* Super chain of a class (the class itself first).  Interfaces chain
   through their extended interfaces instead. *)
let super_chain genv pos name =
  let rec go acc name fuel =
    if fuel = 0 then type_error pos "cyclic inheritance involving %s" name;
    let ci = find_class genv pos name in
    let acc = ci :: acc in
    match ci.Jtype.ci_super with
    | Some super -> go acc super (fuel - 1)
    | None -> List.rev acc
  in
  go [] name 64

(* All interfaces implemented by a class or extended by an interface,
   transitively. *)
let rec all_interfaces genv pos name =
  let ci = find_class genv pos name in
  let direct = ci.Jtype.ci_interfaces in
  let inherited =
    match ci.Jtype.ci_super with
    | Some super when not ci.Jtype.ci_interface -> all_interfaces genv pos super
    | _ -> []
  in
  let from_direct = List.concat_map (fun i -> i :: all_interfaces genv pos i) direct in
  List.sort_uniq String.compare (direct @ inherited @ from_direct)

let is_subclass genv pos ~sub ~super =
  String.equal sub super
  || List.exists (fun ci -> String.equal ci.Jtype.ci_name super) (super_chain genv pos sub)
  || List.exists (String.equal super) (all_interfaces genv pos sub)

(* Widening primitive conversions (JLS 5.1.2). *)
let widens ~from ~to_ =
  let open Jtype in
  match from, to_ with
  | Byte, (Short | Int | Long | Float | Double)
  | Short, (Int | Long | Float | Double)
  | Char, (Int | Long | Float | Double)
  | Int, (Long | Float | Double)
  | Long, (Float | Double)
  | Float, Double -> true
  | _ -> false

let assignable genv pos ~from ~to_ =
  let open Jtype in
  if equal from to_ then true
  else
    match from, to_ with
    | Null_t, (Class _ | Array _) -> true
    | _ when is_primitive from && is_primitive to_ -> widens ~from ~to_
    | Class sub, Class super -> is_subclass genv pos ~sub ~super
    | Array _, Class c when String.equal c object_class -> true
    | Array a, Array b -> begin
      match a, b with
      | Class _, Class _ | Array _, Array _ | Class _, Array _ | Array _, Class _ ->
        (* covariant reference arrays, as in Java *)
        (match a, b with
        | Class sub, Class super -> is_subclass genv pos ~sub ~super
        | _ -> equal a b)
      | _ -> equal a b
    end
    | _ -> false

(* ---------------------------------------------------------------------- *)
(* Type-expression resolution                                              *)
(* ---------------------------------------------------------------------- *)

let rec resolve_type genv pos = function
  | Ast.Te_prim Ast.Pboolean -> Jtype.Boolean
  | Ast.Te_prim Ast.Pbyte -> Jtype.Byte
  | Ast.Te_prim Ast.Pshort -> Jtype.Short
  | Ast.Te_prim Ast.Pchar -> Jtype.Char
  | Ast.Te_prim Ast.Pint -> Jtype.Int
  | Ast.Te_prim Ast.Plong -> Jtype.Long
  | Ast.Te_prim Ast.Pfloat -> Jtype.Float
  | Ast.Te_prim Ast.Pdouble -> Jtype.Double
  | Ast.Te_prim Ast.Pvoid -> Jtype.Void
  | Ast.Te_name path -> Jtype.Class (genv.resolve pos path)
  | Ast.Te_array elem -> Jtype.Array (resolve_type genv pos elem)
  | Ast.Te_hyper n -> type_error pos "hyper-link #<%d> cannot appear in compiled code" n

(* ---------------------------------------------------------------------- *)
(* Member lookup                                                           *)
(* ---------------------------------------------------------------------- *)

(* Field lookup: walks the super chain (and, for interfaces, their
   extended interfaces) returning the declaring class and info. *)
let find_field genv pos class_name field_name =
  let search_ci ci =
    List.find_opt (fun f -> String.equal f.Jtype.fi_name field_name) ci.Jtype.ci_fields
    |> Option.map (fun f -> (ci.Jtype.ci_name, f))
  in
  let ci = find_class genv pos class_name in
  let candidates =
    if ci.Jtype.ci_interface then
      ci :: List.map (find_class genv pos) (all_interfaces genv pos class_name)
    else
      (* classes also see constants of their implemented interfaces *)
      super_chain genv pos class_name
      @ List.map (find_class genv pos) (all_interfaces genv pos class_name)
  in
  List.find_map search_ci candidates

(* Method lookup: all methods with the given name visible on the class,
   subclass-declared first (so overriding shadows correctly during
   most-specific selection). *)
let find_methods genv pos class_name method_name =
  let of_ci ci =
    List.filter_map
      (fun m ->
        if String.equal m.Jtype.mi_name method_name then Some (ci.Jtype.ci_name, m) else None)
      ci.Jtype.ci_methods
  in
  let ci = find_class genv pos class_name in
  let chain =
    if ci.Jtype.ci_interface then
      (ci :: List.map (find_class genv pos) (all_interfaces genv pos class_name))
      @ [ find_class genv pos Jtype.object_class ]
    else
      (* classes also see the (abstract) methods of their interfaces, so
         an abstract class may call methods its subclasses implement *)
      super_chain genv pos class_name
      @ List.map (find_class genv pos) (all_interfaces genv pos class_name)
  in
  List.concat_map of_ci chain

let applicable genv pos args_types (_, mi) =
  let params = mi.Jtype.mi_sig.Jtype.params in
  List.length params = List.length args_types
  && List.for_all2 (fun arg param -> assignable genv pos ~from:arg ~to_:param) args_types params

(* Most-specific overload selection, with an exact-match fast path. *)
let select_overload genv pos ~what candidates args_types =
  let applicable_candidates = List.filter (applicable genv pos args_types) candidates in
  match applicable_candidates with
  | [] ->
    let args = String.concat ", " (List.map Jtype.to_string args_types) in
    if candidates = [] then type_error pos "no such %s" what
    else type_error pos "no applicable overload of %s for (%s)" what args
  | [ only ] -> only
  | many -> begin
    let exact =
      List.find_opt
        (fun (_, mi) ->
          List.for_all2 Jtype.equal mi.Jtype.mi_sig.Jtype.params args_types)
        many
    in
    match exact with
    | Some m -> m
    | None ->
      let more_specific (_, m1) (_, m2) =
        List.for_all2
          (fun p1 p2 -> assignable genv pos ~from:p1 ~to_:p2)
          m1.Jtype.mi_sig.Jtype.params m2.Jtype.mi_sig.Jtype.params
      in
      let most =
        List.find_opt (fun m -> List.for_all (fun m' -> more_specific m m') many) many
      in
      (match most with
      | Some m -> m
      | None -> List.hd many (* ambiguous; deterministic pick, documented *))
  end

(* ---------------------------------------------------------------------- *)
(* Expression checking                                                     *)
(* ---------------------------------------------------------------------- *)

type method_ctx = {
  genv : genv;
  current_class : string;
  static : bool;
  return_type : Jtype.t;
  mutable scopes : (string, int * Jtype.t) Hashtbl.t list;
  mutable max_locals : int;
  is_ctor : bool;
}

let push_scope ctx = ctx.scopes <- Hashtbl.create 8 :: ctx.scopes

let pop_scope ctx =
  match ctx.scopes with
  | _ :: rest -> ctx.scopes <- rest
  | [] -> invalid_arg "pop_scope: empty"

let lookup_local ctx name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some v -> Some v
      | None -> go rest)
  in
  go ctx.scopes

let declare_local ctx pos name ty =
  match ctx.scopes with
  | [] -> invalid_arg "declare_local: no scope"
  | scope :: _ ->
    if Hashtbl.mem scope name then type_error pos "duplicate local variable %s" name;
    let slot = ctx.max_locals in
    ctx.max_locals <- ctx.max_locals + 1;
    Hashtbl.replace scope name (slot, ty);
    slot

let lit_type = function
  | Ast.L_int _ -> Jtype.Int
  | Ast.L_long _ -> Jtype.Long
  | Ast.L_float _ -> Jtype.Float
  | Ast.L_double _ -> Jtype.Double
  | Ast.L_bool _ -> Jtype.Boolean
  | Ast.L_char _ -> Jtype.Char
  | Ast.L_string _ -> Jtype.Class Jtype.string_class
  | Ast.L_null -> Jtype.Null_t

let mk ty node = { Tast.ty; node }

(* Implicit assignment conversion, inserting T_conv where needed.
   Also allows the Java constant-narrowing rule for int literals. *)
let coerce ctx pos tex target =
  let genv = ctx.genv in
  if Jtype.equal tex.Tast.ty target then tex
  else if assignable genv pos ~from:tex.Tast.ty ~to_:target then
    if Jtype.is_primitive target then mk target (Tast.T_conv (target, tex)) else mk target tex.Tast.node
  else
    match tex.Tast.node, target with
    | Tast.T_lit (Ast.L_int n), Jtype.Byte when Int32.to_int n >= -128 && Int32.to_int n <= 127
      -> mk target (Tast.T_conv (target, tex))
    | Tast.T_lit (Ast.L_int n), Jtype.Short
      when Int32.to_int n >= -32768 && Int32.to_int n <= 32767 ->
      mk target (Tast.T_conv (target, tex))
    | Tast.T_lit (Ast.L_int n), Jtype.Char when Int32.to_int n >= 0 && Int32.to_int n <= 0xffff
      -> mk target (Tast.T_conv (target, tex))
    | _ ->
      type_error pos "type mismatch: expected %s, found %s" (Jtype.to_string target)
        (Jtype.to_string tex.Tast.ty)

(* Binary numeric promotion: both operands to the wider of (int, a, b). *)
let promote _ctx pos a b =
  let open Jtype in
  let rank = function
    | Byte | Short | Char | Int -> 0
    | Long -> 1
    | Float -> 2
    | Double -> 3
    | t -> type_error pos "numeric operand expected, found %s" (to_string t)
  in
  let target = match max (rank a.Tast.ty) (rank b.Tast.ty) with
    | 0 -> Int
    | 1 -> Long
    | 2 -> Float
    | _ -> Double
  in
  let conv tex =
    if Jtype.equal tex.Tast.ty target then tex else mk target (Tast.T_conv (target, tex))
  in
  (conv a, conv b, target)

let is_string_type = function
  | Jtype.Class c -> String.equal c Jtype.string_class
  | _ -> false

let to_string_tex tex =
  if is_string_type tex.Tast.ty then tex
  else mk (Jtype.Class Jtype.string_class) (Tast.T_to_string tex)

let class_name_of pos ty ~what =
  match ty with
  | Jtype.Class name -> name
  | Jtype.Array _ -> Jtype.object_class
  | _ -> type_error pos "%s requires a reference, found %s" what (Jtype.to_string ty)

(* The meaning of a (possibly partial) dotted name. *)
type name_meaning =
  | M_value of Tast.tex
  | M_class of string

let rec check_expr ctx (e : Ast.expr) : Tast.tex =
  let pos = e.Ast.pos in
  match e.Ast.desc with
  | Ast.E_lit lit -> mk (lit_type lit) (Tast.T_lit lit)
  | Ast.E_this ->
    if ctx.static then type_error pos "'this' used in a static context";
    mk (Jtype.Class ctx.current_class) Tast.T_this
  | Ast.E_name path -> begin
    match resolve_name ctx pos path with
    | M_value tex -> tex
    | M_class name -> type_error pos "class %s used as a value" name
  end
  | Ast.E_field (recv, name) ->
    let recv = check_expr ctx recv in
    check_field_access ctx pos recv name
  | Ast.E_index (arr, idx) ->
    let arr = check_expr ctx arr in
    let idx = coerce ctx pos (check_expr ctx idx) Jtype.Int in
    begin
      match arr.Tast.ty with
      | Jtype.Array elem -> mk elem (Tast.T_index (arr, idx))
      | t -> type_error pos "array expected, found %s" (Jtype.to_string t)
    end
  | Ast.E_call (recv, name, args) ->
    let recv = check_expr ctx recv in
    let args = List.map (check_expr ctx) args in
    check_method_call ctx pos (Some recv) recv.Tast.ty name args
  | Ast.E_call_name (path, args) -> begin
    let args = List.map (check_expr ctx) args in
    match path with
    | [ name ] ->
      (* method of the current class *)
      let recv =
        if ctx.static then None else Some (mk (Jtype.Class ctx.current_class) Tast.T_this)
      in
      check_unqualified_call ctx pos recv name args
    | _ -> begin
      let prefix = List.filteri (fun i _ -> i < List.length path - 1) path in
      let name = List.nth path (List.length path - 1) in
      match resolve_name ctx pos prefix with
      | M_value recv -> check_method_call ctx pos (Some recv) recv.Tast.ty name args
      | M_class cls -> check_static_call ctx pos cls name args
    end
  end
  | Ast.E_new (path, args) ->
    let cls = ctx.genv.resolve pos path in
    let args = List.map (check_expr ctx) args in
    check_new ctx pos cls args
  | Ast.E_new_array (base, sizes, extra) ->
    let base_ty = resolve_type ctx.genv pos base in
    if Jtype.equal base_ty Jtype.Void then type_error pos "cannot create an array of void";
    let sizes = List.map (fun s -> coerce ctx pos (check_expr ctx s) Jtype.Int) sizes in
    let rec array_of ty n = if n = 0 then ty else array_of (Jtype.Array ty) (n - 1) in
    let result = array_of base_ty (List.length sizes + extra) in
    mk result (Tast.T_new_array (result, sizes))
  | Ast.E_cast (te, inner) ->
    let target = resolve_type ctx.genv pos te in
    let inner = check_expr ctx inner in
    check_cast ctx pos target inner
  | Ast.E_instanceof (inner, te) ->
    let target = resolve_type ctx.genv pos te in
    let inner = check_expr ctx inner in
    if not (Jtype.is_reference inner.Tast.ty) then
      type_error pos "instanceof requires a reference operand";
    if not (Jtype.is_reference target) then
      type_error pos "instanceof requires a reference type";
    mk Jtype.Boolean (Tast.T_instanceof (inner, target))
  | Ast.E_unop (op, inner) -> check_unop ctx pos op inner
  | Ast.E_binop (op, a, b) -> check_binop ctx pos op a b
  | Ast.E_assign (lhs, rhs) ->
    let lv, lv_ty = check_lvalue ctx lhs in
    let rhs = coerce ctx pos (check_expr ctx rhs) lv_ty in
    mk lv_ty (Tast.T_assign (lv, rhs))
  | Ast.E_op_assign (op, lhs, rhs) ->
    (* Desugared to lhs = (T) (lhs op rhs).  Note: side effects in a
       receiver or index expression are evaluated twice; documented. *)
    let lv, lv_ty = check_lvalue ctx lhs in
    let combined = check_binop ctx pos op lhs rhs in
    let narrowed =
      if Jtype.equal combined.Tast.ty lv_ty then combined
      else if Jtype.is_primitive lv_ty && Jtype.is_numeric combined.Tast.ty then
        mk lv_ty (Tast.T_conv (lv_ty, combined))
      else coerce ctx pos combined lv_ty
    in
    mk lv_ty (Tast.T_assign (lv, narrowed))
  | Ast.E_incr { prefix; up; target } ->
    let lv, lv_ty = check_lvalue ctx target in
    (match lv with
    | Tast.Lv_local _ | Tast.Lv_static _ -> ()
    | Tast.Lv_field _ | Tast.Lv_index _ ->
      type_error pos "++/-- is supported on locals and static fields only");
    if not (Jtype.is_numeric lv_ty) then type_error pos "++/-- requires a numeric operand";
    let one = mk lv_ty (Tast.T_conv (lv_ty, mk Jtype.Int (Tast.T_lit (Ast.L_int 1l)))) in
    let read = match lv with
      | Tast.Lv_local slot -> mk lv_ty (Tast.T_local slot)
      | Tast.Lv_static (c, f) -> mk lv_ty (Tast.T_static_get (c, f))
      | _ -> assert false
    in
    let op = if up then Ast.Add else Ast.Sub in
    let a, b, t = promote ctx pos read one in
    let sum = mk t (Tast.T_binop (op, Tast.opkind_of_type t, a, b)) in
    let narrowed = if Jtype.equal t lv_ty then sum else mk lv_ty (Tast.T_conv (lv_ty, sum)) in
    let assign = mk lv_ty (Tast.T_assign (lv, narrowed)) in
    if prefix then assign
    else begin
      (* Postfix value semantics: old value.  Lowered as
         (read - 1) after assignment would be wrong for overflow edge
         cases, so we lower to a dedicated conditional shape instead:
         evaluate assign, then subtract/add one to recover the old value.
         Wrap-around arithmetic makes this exact for integral types. *)
      let opposite = if up then Ast.Sub else Ast.Add in
      let a2, b2, t2 = promote ctx pos assign one in
      let back = mk t2 (Tast.T_binop (opposite, Tast.opkind_of_type t2, a2, b2)) in
      if Jtype.equal t2 lv_ty then back else mk lv_ty (Tast.T_conv (lv_ty, back))
    end
  | Ast.E_cond (c, t, e2) ->
    let c = coerce ctx pos (check_expr ctx c) Jtype.Boolean in
    let t = check_expr ctx t in
    let e2 = check_expr ctx e2 in
    let result_ty =
      if Jtype.equal t.Tast.ty e2.Tast.ty then t.Tast.ty
      else if assignable ctx.genv pos ~from:t.Tast.ty ~to_:e2.Tast.ty then e2.Tast.ty
      else if assignable ctx.genv pos ~from:e2.Tast.ty ~to_:t.Tast.ty then t.Tast.ty
      else
        type_error pos "incompatible branches of ?: (%s vs %s)" (Jtype.to_string t.Tast.ty)
          (Jtype.to_string e2.Tast.ty)
    in
    let t = coerce ctx pos t result_ty and e2 = coerce ctx pos e2 result_ty in
    mk result_ty (Tast.T_cond (c, t, e2))
  | Ast.E_hyper n | Ast.E_call_hyper (n, _) | Ast.E_new_hyper (n, _) ->
    type_error pos
      "hyper-link #<%d> reached the compiler; hyper-programs must be translated to textual \
       form first"
      n

and check_field_access ctx pos recv name =
  match recv.Tast.ty with
  | Jtype.Array _ when String.equal name "length" -> mk Jtype.Int (Tast.T_array_len recv)
  | ty ->
    let cls = class_name_of pos ty ~what:"field access" in
    begin
      match find_field ctx.genv pos cls name with
      | Some (decl_class, fi) ->
        if fi.Jtype.fi_static then mk fi.Jtype.fi_type (Tast.T_static_get (decl_class, name))
        else mk fi.Jtype.fi_type (Tast.T_field_get (recv, decl_class, name))
      | None -> type_error pos "class %s has no field %s" cls name
    end

and check_method_call ctx pos recv recv_ty name args =
  let cls = class_name_of pos recv_ty ~what:"method call" in
  let candidates = find_methods ctx.genv pos cls name in
  if candidates = [] then type_error pos "class %s has no method %s" cls name;
  let arg_types = List.map (fun a -> a.Tast.ty) args in
  let decl_class, mi =
    select_overload ctx.genv pos
      ~what:(Printf.sprintf "method %s.%s" cls name)
      candidates arg_types
  in
  let args = List.map2 (fun a p -> coerce ctx pos a p) args mi.Jtype.mi_sig.Jtype.params in
  if mi.Jtype.mi_static then
    mk mi.Jtype.mi_sig.Jtype.ret (Tast.T_call (Tast.C_static (decl_class, name, mi.Jtype.mi_sig), args))
  else begin
    match recv with
    | Some recv ->
      mk mi.Jtype.mi_sig.Jtype.ret
        (Tast.T_call (Tast.C_virtual (recv, decl_class, name, mi.Jtype.mi_sig), args))
    | None -> type_error pos "instance method %s.%s called from a static context" cls name
  end

and check_static_call ctx pos cls name args =
  let candidates = find_methods ctx.genv pos cls name in
  if candidates = [] then type_error pos "class %s has no method %s" cls name;
  let arg_types = List.map (fun a -> a.Tast.ty) args in
  let decl_class, mi =
    select_overload ctx.genv pos
      ~what:(Printf.sprintf "method %s.%s" cls name)
      candidates arg_types
  in
  if not mi.Jtype.mi_static then
    type_error pos "instance method %s.%s used without a receiver" cls name;
  let args = List.map2 (fun a p -> coerce ctx pos a p) args mi.Jtype.mi_sig.Jtype.params in
  mk mi.Jtype.mi_sig.Jtype.ret (Tast.T_call (Tast.C_static (decl_class, name, mi.Jtype.mi_sig), args))

and check_unqualified_call ctx pos recv name args =
  (* A bare m(...) call: resolve against the current class. *)
  check_method_call ctx pos recv (Jtype.Class ctx.current_class) name args

and check_new ctx pos cls args =
  let ci = find_class ctx.genv pos cls in
  if ci.Jtype.ci_interface then type_error pos "cannot instantiate interface %s" cls;
  if ci.Jtype.ci_abstract then type_error pos "cannot instantiate abstract class %s" cls;
  let candidates =
    List.filter_map
      (fun m -> if String.equal m.Jtype.mi_name "<init>" then Some (cls, m) else None)
      ci.Jtype.ci_methods
  in
  if candidates = [] then type_error pos "class %s has no constructor" cls;
  let arg_types = List.map (fun a -> a.Tast.ty) args in
  let _, mi =
    select_overload ctx.genv pos
      ~what:(Printf.sprintf "constructor %s" cls)
      candidates arg_types
  in
  let args = List.map2 (fun a p -> coerce ctx pos a p) args mi.Jtype.mi_sig.Jtype.params in
  mk (Jtype.Class cls) (Tast.T_new (cls, mi.Jtype.mi_sig, args))

and check_cast ctx pos target inner =
  let open Jtype in
  let src = inner.Tast.ty in
  if equal target src then inner
  else if is_primitive target && is_numeric target && is_numeric src then
    mk target (Tast.T_conv (target, inner))
  else if is_reference target && is_reference src then begin
    if assignable ctx.genv pos ~from:src ~to_:target then mk target inner.Tast.node
    else begin
      (* Downcasts and interface casts are checked at run time. *)
      let plausible =
        assignable ctx.genv pos ~from:target ~to_:src
        ||
        let is_iface = function
          | Class c -> (find_class ctx.genv pos c).Jtype.ci_interface
          | _ -> false
        in
        is_iface target || is_iface src
        || (match target, src with
           | Array _, Class c | Class c, Array _ -> String.equal c object_class
           | Array _, Array _ -> true
           | _ -> false)
      in
      if not plausible then
        type_error pos "inconvertible types: cannot cast %s to %s" (to_string src)
          (to_string target);
      mk target (Tast.T_cast (target, inner))
    end
  end
  else type_error pos "cannot cast %s to %s" (to_string src) (to_string target)

and check_unop ctx pos op inner_ast =
  let inner = check_expr ctx inner_ast in
  match op with
  | Ast.Neg ->
    if not (Jtype.is_numeric inner.Tast.ty) then type_error pos "unary - requires a number";
    let a, _, t = promote ctx pos inner inner in
    mk t (Tast.T_unop (Ast.Neg, Tast.opkind_of_type t, a))
  | Ast.Not ->
    let inner = coerce ctx pos inner Jtype.Boolean in
    mk Jtype.Boolean (Tast.T_unop (Ast.Not, Tast.Obool, inner))
  | Ast.Bit_not ->
    if not (Jtype.is_integral inner.Tast.ty) then type_error pos "~ requires an integral value";
    let a, _, t = promote ctx pos inner inner in
    mk t (Tast.T_unop (Ast.Bit_not, Tast.opkind_of_type t, a))

and check_binop ctx pos op a_ast b_ast =
  let a = check_expr ctx a_ast and b = check_expr ctx b_ast in
  let open Ast in
  match op with
  | Add when is_string_type a.Tast.ty || is_string_type b.Tast.ty ->
    mk (Jtype.Class Jtype.string_class) (Tast.T_concat (to_string_tex a, to_string_tex b))
  | Add | Sub | Mul | Div | Mod ->
    let a, b, t = promote ctx pos a b in
    mk t (Tast.T_binop (op, Tast.opkind_of_type t, a, b))
  | Lt | Le | Gt | Ge ->
    let a, b, t = promote ctx pos a b in
    mk Jtype.Boolean (Tast.T_binop (op, Tast.opkind_of_type t, a, b))
  | Eq | Ne -> begin
    match Jtype.is_reference a.Tast.ty, Jtype.is_reference b.Tast.ty with
    | true, true -> mk Jtype.Boolean (Tast.T_binop (op, Tast.Oref, a, b))
    | false, false ->
      if Jtype.equal a.Tast.ty Jtype.Boolean || Jtype.equal b.Tast.ty Jtype.Boolean then begin
        let a = coerce ctx pos a Jtype.Boolean and b = coerce ctx pos b Jtype.Boolean in
        mk Jtype.Boolean (Tast.T_binop (op, Tast.Obool, a, b))
      end
      else begin
        let a, b, t = promote ctx pos a b in
        mk Jtype.Boolean (Tast.T_binop (op, Tast.opkind_of_type t, a, b))
      end
    | _ -> type_error pos "cannot compare %s with %s" (Jtype.to_string a.Tast.ty) (Jtype.to_string b.Tast.ty)
  end
  | And | Or ->
    let a = coerce ctx pos a Jtype.Boolean and b = coerce ctx pos b Jtype.Boolean in
    mk Jtype.Boolean (Tast.T_binop (op, Tast.Obool, a, b))
  | Bit_and | Bit_or | Bit_xor ->
    if not (Jtype.is_integral a.Tast.ty && Jtype.is_integral b.Tast.ty) then
      type_error pos "bitwise operators require integral operands";
    let a, b, t = promote ctx pos a b in
    mk t (Tast.T_binop (op, Tast.opkind_of_type t, a, b))
  | Shl | Shr | Ushr ->
    if not (Jtype.is_integral a.Tast.ty && Jtype.is_integral b.Tast.ty) then
      type_error pos "shift operators require integral operands";
    let a, _, t = promote ctx pos a a in
    let b = coerce ctx pos b Jtype.Int in
    mk t (Tast.T_binop (op, Tast.opkind_of_type t, a, b))

and check_lvalue ctx (e : Ast.expr) : Tast.lvalue * Jtype.t =
  let pos = e.Ast.pos in
  match e.Ast.desc with
  | Ast.E_name path -> begin
    match resolve_name_lvalue ctx pos path with
    | Some lv -> lv
    | None -> type_error pos "%s is not assignable" (Ast.dotted path)
  end
  | Ast.E_field (recv, name) -> begin
    let recv = check_expr ctx recv in
    match recv.Tast.ty with
    | Jtype.Array _ -> type_error pos "array length is not assignable"
    | ty ->
      let cls = class_name_of pos ty ~what:"field assignment" in
      (match find_field ctx.genv pos cls name with
      | Some (decl_class, fi) ->
        if fi.Jtype.fi_static then (Tast.Lv_static (decl_class, name), fi.Jtype.fi_type)
        else (Tast.Lv_field (recv, decl_class, name), fi.Jtype.fi_type)
      | None -> type_error pos "class %s has no field %s" cls name)
  end
  | Ast.E_index (arr, idx) -> begin
    let arr = check_expr ctx arr in
    let idx = coerce ctx pos (check_expr ctx idx) Jtype.Int in
    match arr.Tast.ty with
    | Jtype.Array elem -> (Tast.Lv_index (arr, idx), elem)
    | t -> type_error pos "array expected, found %s" (Jtype.to_string t)
  end
  | _ -> type_error pos "expression is not assignable"

(* Resolve a dotted name as an lvalue (local, field, or static chain). *)
and resolve_name_lvalue ctx pos path =
  match path with
  | [] -> None
  | [ name ] -> begin
    match lookup_local ctx name with
    | Some (slot, ty) -> Some (Tast.Lv_local slot, ty)
    | None -> begin
      match find_field ctx.genv pos ctx.current_class name with
      | Some (decl_class, fi) ->
        if fi.Jtype.fi_static then Some (Tast.Lv_static (decl_class, name), fi.Jtype.fi_type)
        else if ctx.static then
          type_error pos "instance field %s referenced from a static context" name
        else
          Some
            ( Tast.Lv_field (mk (Jtype.Class ctx.current_class) Tast.T_this, decl_class, name),
              fi.Jtype.fi_type )
      | None -> None
    end
  end
  | _ -> begin
    (* a.b.c = v : resolve prefix as value or class, then assign last field *)
    let prefix = List.filteri (fun i _ -> i < List.length path - 1) path in
    let name = List.nth path (List.length path - 1) in
    match resolve_name ctx pos prefix with
    | M_value recv -> begin
      match recv.Tast.ty with
      | Jtype.Array _ -> type_error pos "array length is not assignable"
      | ty ->
        let cls = class_name_of pos ty ~what:"field assignment" in
        (match find_field ctx.genv pos cls name with
        | Some (decl_class, fi) ->
          if fi.Jtype.fi_static then Some (Tast.Lv_static (decl_class, name), fi.Jtype.fi_type)
          else Some (Tast.Lv_field (recv, decl_class, name), fi.Jtype.fi_type)
        | None -> type_error pos "class %s has no field %s" cls name)
    end
    | M_class cls -> begin
      match find_field ctx.genv pos cls name with
      | Some (decl_class, fi) when fi.Jtype.fi_static ->
        Some (Tast.Lv_static (decl_class, name), fi.Jtype.fi_type)
      | Some _ -> type_error pos "instance field %s.%s used without a receiver" cls name
      | None -> type_error pos "class %s has no static field %s" cls name
    end
  end

(* Resolve a dotted name to a value or a class.  Locals and fields of the
   current class take precedence; otherwise the longest resolvable class
   prefix wins and remaining segments are member accesses. *)
and resolve_name ctx pos path =
  let continue_with tex rest = M_value (List.fold_left (fun acc seg -> check_field_access ctx pos acc seg) tex rest) in
  match path with
  | [] -> invalid_arg "resolve_name: empty path"
  | first :: rest -> begin
    match lookup_local ctx first with
    | Some (slot, ty) -> continue_with (mk ty (Tast.T_local slot)) rest
    | None -> begin
      match find_field ctx.genv pos ctx.current_class first with
      | Some (decl_class, fi) ->
        let head =
          if fi.Jtype.fi_static then mk fi.Jtype.fi_type (Tast.T_static_get (decl_class, first))
          else if ctx.static then
            type_error pos "instance field %s referenced from a static context" first
          else
            mk fi.Jtype.fi_type
              (Tast.T_field_get (mk (Jtype.Class ctx.current_class) Tast.T_this, decl_class, first))
        in
        continue_with head rest
      | None -> begin
        (* Try class prefixes, longest first. *)
        let n = List.length path in
        let rec try_prefix len =
          if len = 0 then
            type_error pos "cannot resolve name %s" (Ast.dotted path)
          else begin
            let prefix = List.filteri (fun i _ -> i < len) path in
            match
              (try Some (ctx.genv.resolve pos prefix) with Type_error _ -> None)
            with
            | Some cls -> begin
              let rest = List.filteri (fun i _ -> i >= len) path in
              match rest with
              | [] -> M_class cls
              | member :: more -> begin
                match find_field ctx.genv pos cls member with
                | Some (decl_class, fi) when fi.Jtype.fi_static ->
                  continue_with (mk fi.Jtype.fi_type (Tast.T_static_get (decl_class, member))) more
                | Some _ ->
                  type_error pos "instance field %s.%s used without a receiver" cls member
                | None -> try_prefix (len - 1)
              end
            end
            | None -> try_prefix (len - 1)
          end
        in
        try_prefix n
      end
    end
  end

(* ---------------------------------------------------------------------- *)
(* Statement checking                                                      *)
(* ---------------------------------------------------------------------- *)

(* Allocate an anonymous temporary slot (e.g. the switch scrutinee). *)
let declare_in_fresh_slot ctx =
  let slot = ctx.max_locals in
  ctx.max_locals <- ctx.max_locals + 1;
  slot

let default_value_lit pos ty =
  match ty with
  | Jtype.Boolean -> Ast.L_bool false
  | Jtype.Byte | Jtype.Short | Jtype.Int -> Ast.L_int 0l
  | Jtype.Char -> Ast.L_char 0
  | Jtype.Long -> Ast.L_long 0L
  | Jtype.Float -> Ast.L_float 0.
  | Jtype.Double -> Ast.L_double 0.
  | Jtype.Class _ | Jtype.Array _ | Jtype.Null_t -> Ast.L_null
  | Jtype.Void -> type_error pos "void variable"

let rec check_stmt ctx (s : Ast.stmt) : Tast.tstmt list =
  let pos = s.Ast.spos in
  match s.Ast.sdesc with
  | Ast.S_expr e -> [ Tast.Ts_expr (check_expr ctx e) ]
  | Ast.S_local (te, decls) ->
    let ty = resolve_type ctx.genv pos te in
    if Jtype.equal ty Jtype.Void then type_error pos "variables cannot have type void";
    List.map
      (fun (name, init) ->
        let init_tex =
          match init with
          | Some e -> coerce ctx e.Ast.pos (check_expr ctx e) ty
          | None ->
            let lit = default_value_lit pos ty in
            coerce ctx pos (mk (lit_type lit) (Tast.T_lit lit)) ty
        in
        let slot = declare_local ctx pos name ty in
        Tast.Ts_local_init (slot, init_tex))
      decls
  | Ast.S_if (cond, then_, else_) ->
    let cond = coerce ctx pos (check_expr ctx cond) Jtype.Boolean in
    let then_ = check_block ctx then_ in
    let else_ = match else_ with None -> [] | Some s -> check_block ctx s in
    [ Tast.Ts_if (cond, then_, else_) ]
  | Ast.S_while (cond, body) ->
    let cond = coerce ctx pos (check_expr ctx cond) Jtype.Boolean in
    [ Tast.Ts_while (cond, check_block ctx body) ]
  | Ast.S_do_while (body, cond) ->
    let tbody = check_block ctx body in
    let cond = coerce ctx pos (check_expr ctx cond) Jtype.Boolean in
    [ Tast.Ts_do_while (tbody, cond) ]
  | Ast.S_switch (scrut, cases) ->
    let scrut = check_expr ctx scrut in
    if not (Jtype.is_integral scrut.Tast.ty) || Jtype.equal scrut.Tast.ty Jtype.Long then
      type_error pos "switch requires an int-kind scrutinee, found %s"
        (Jtype.to_string scrut.Tast.ty);
    let scrut_slot = declare_in_fresh_slot ctx in
    let seen_labels = Hashtbl.create 8 in
    let seen_default = ref false in
    push_scope ctx;
    let groups =
      List.map
        (fun (c : Ast.switch_case) ->
          let labels =
            List.filter_map
              (fun label ->
                match label with
                | None ->
                  if !seen_default then type_error pos "duplicate default label";
                  seen_default := true;
                  None
                | Some (Ast.L_int n) -> Some n
                | Some (Ast.L_char ch) -> Some (Int32.of_int ch)
                | Some lit ->
                  type_error pos "case label must be an int constant, found %s"
                    (Jtype.to_string (lit_type lit)))
              c.Ast.case_labels
          in
          List.iter
            (fun n ->
              if Hashtbl.mem seen_labels n then type_error pos "duplicate case label %ld" n;
              Hashtbl.replace seen_labels n ())
            labels;
          let default = List.exists (fun l -> l = None) c.Ast.case_labels in
          let body = List.concat_map (check_stmt ctx) c.Ast.case_body in
          { Tast.sg_labels = labels; sg_default = default; sg_body = body })
        cases
    in
    pop_scope ctx;
    [ Tast.Ts_switch (scrut_slot, scrut, groups) ]
  | Ast.S_for (init, cond, update, body) ->
    push_scope ctx;
    let init_stmts =
      match init with
      | None -> []
      | Some (Ast.Fi_local (te, decls)) ->
        check_stmt ctx { Ast.spos = pos; sdesc = Ast.S_local (te, decls) }
      | Some (Ast.Fi_exprs es) -> List.map (fun e -> Tast.Ts_expr (check_expr ctx e)) es
    in
    let cond = Option.map (fun c -> coerce ctx pos (check_expr ctx c) Jtype.Boolean) cond in
    let update = List.map (check_expr ctx) update in
    let body = check_block ctx body in
    pop_scope ctx;
    [ Tast.Ts_for (init_stmts, cond, update, body) ]
  | Ast.S_throw e ->
    let e = check_expr ctx e in
    let throwable = Jtype.Class "java.lang.Throwable" in
    if not (assignable ctx.genv pos ~from:e.Tast.ty ~to_:throwable) then
      type_error pos "throw requires a Throwable, found %s" (Jtype.to_string e.Tast.ty);
    [ Tast.Ts_throw e ]
  | Ast.S_try (body, catches) ->
    push_scope ctx;
    let tbody = List.concat_map (check_stmt ctx) body in
    pop_scope ctx;
    let tcatches =
      List.map
        (fun (c : Ast.catch_clause) ->
          let ty = resolve_type ctx.genv pos c.Ast.catch_type in
          let cls =
            match ty with
            | Jtype.Class name
              when is_subclass ctx.genv pos ~sub:name ~super:"java.lang.Throwable" -> name
            | _ ->
              type_error pos "catch parameter must be a Throwable class, found %s"
                (Jtype.to_string ty)
          in
          push_scope ctx;
          let slot = declare_local ctx pos c.Ast.catch_name ty in
          let tbody = List.concat_map (check_stmt ctx) c.Ast.catch_body in
          pop_scope ctx;
          { Tast.tc_slot = slot; tc_class = cls; tc_body = tbody })
        catches
    in
    [ Tast.Ts_try (tbody, tcatches) ]
  | Ast.S_return None ->
    if not (Jtype.equal ctx.return_type Jtype.Void) then
      type_error pos "missing return value (expected %s)" (Jtype.to_string ctx.return_type);
    [ Tast.Ts_return None ]
  | Ast.S_return (Some e) ->
    if Jtype.equal ctx.return_type Jtype.Void then type_error pos "void method returns a value";
    let expr_pos = e.Ast.pos in
    let e = coerce ctx expr_pos (check_expr ctx e) ctx.return_type in
    [ Tast.Ts_return (Some e) ]
  | Ast.S_block stmts ->
    push_scope ctx;
    let checked = List.concat_map (check_stmt ctx) stmts in
    pop_scope ctx;
    checked
  | Ast.S_break -> [ Tast.Ts_break ]
  | Ast.S_continue -> [ Tast.Ts_continue ]
  | Ast.S_super _ -> type_error pos "super(...) is only allowed as the first statement of a constructor"

and check_block ctx (s : Ast.stmt) : Tast.tstmt list =
  match s.Ast.sdesc with
  | Ast.S_block stmts ->
    push_scope ctx;
    let checked = List.concat_map (check_stmt ctx) stmts in
    pop_scope ctx;
    checked
  | _ -> check_stmt ctx s

(* Definite-return analysis: does the statement list always return? *)
let rec always_returns stmts =
  List.exists
    (function
      | Tast.Ts_return _ -> true
      | Tast.Ts_if (_, a, b) -> always_returns a && always_returns b
      | Tast.Ts_while ({ Tast.node = Tast.T_lit (Ast.L_bool true); _ }, body) ->
        not (contains_break body)
      | Tast.Ts_do_while (body, _) -> always_returns body
      | Tast.Ts_throw _ -> true
      | Tast.Ts_try (body, catches) ->
        always_returns body
        && List.for_all (fun c -> always_returns c.Tast.tc_body) catches
      | _ -> false)
    stmts

and contains_break stmts =
  List.exists
    (function
      | Tast.Ts_break -> true
      | Tast.Ts_if (_, a, b) -> contains_break a || contains_break b
      | _ -> false)
    stmts

(* ---------------------------------------------------------------------- *)
(* Unit-level checking                                                     *)
(* ---------------------------------------------------------------------- *)


(* ---------------------------------------------------------------------- *)
(* Unit-level checking                                                     *)
(* ---------------------------------------------------------------------- *)

let full_name package name =
  match package with
  | None -> name
  | Some path -> Ast.dotted path ^ "." ^ name

(* Type-name resolver for one compilation unit inside a batch.  [known]
   answers whether a fully qualified name exists (batch classes or the
   external env); [batch_simple] maps a simple name to a batch class. *)
let make_resolver ~known ~batch_simple ~package ~imports ~local_names =
  let import_map =
    List.filter_map
      (fun path ->
        match List.rev path with
        | [] -> None
        | simple :: _ -> Some (simple, Ast.dotted path))
      imports
  in
  fun pos path ->
    let joined = Ast.dotted path in
    let candidates =
      match path with
      | [ simple ] ->
        (if List.mem simple local_names then [ full_name package simple ] else [])
        @ (match List.assoc_opt simple import_map with
          | Some fqn -> [ fqn ]
          | None -> [])
        @ (match batch_simple simple with
          | Some fqn -> [ fqn ]
          | None -> [])
        @ [
            simple;
            "java.lang." ^ simple;
            "java.lang.reflect." ^ simple;
            "java.util." ^ simple;
          ]
      | _ -> [ joined ]
    in
    match List.find_opt known candidates with
    | Some name -> name
    | None -> type_error pos "cannot resolve type name %s" joined
let class_info_of_decl genv package (cd : Ast.class_decl) : Jtype.class_info =
  let pos = cd.Ast.cd_pos in
  let name = full_name package cd.Ast.cd_name in
  let resolve_class path = genv.resolve pos path in
  let super =
    if cd.Ast.cd_interface then None
    else
      match cd.Ast.cd_super with
      | Some path -> Some (resolve_class path)
      | None -> if String.equal name Jtype.object_class then None else Some Jtype.object_class
  in
  let interfaces = List.map resolve_class cd.Ast.cd_impls in
  let fields =
    List.map
      (fun fd ->
        {
          Jtype.fi_name = fd.Ast.fd_name;
          fi_type = resolve_type genv fd.Ast.fd_pos fd.Ast.fd_type;
          (* interface fields are implicitly static final constants *)
          fi_static = fd.Ast.fd_mods.Ast.m_static || cd.Ast.cd_interface;
          fi_final = fd.Ast.fd_mods.Ast.m_final || cd.Ast.cd_interface;
          fi_public = fd.Ast.fd_mods.Ast.m_public || cd.Ast.cd_interface;
        })
      cd.Ast.cd_fields
  in
  let methods =
    List.map
      (fun md ->
        let params = List.map (fun (te, _) -> resolve_type genv md.Ast.md_pos te) md.Ast.md_params in
        let ret =
          match md.Ast.md_ret with
          | None -> Jtype.Void
          | Some te -> resolve_type genv md.Ast.md_pos te
        in
        {
          Jtype.mi_name = md.Ast.md_name;
          mi_sig = { Jtype.params; ret };
          mi_static = md.Ast.md_mods.Ast.m_static;
          mi_public = md.Ast.md_mods.Ast.m_public || cd.Ast.cd_interface;
          mi_abstract = md.Ast.md_mods.Ast.m_abstract || (cd.Ast.cd_interface && md.Ast.md_body = None);
          mi_native = md.Ast.md_mods.Ast.m_native;
        })
      cd.Ast.cd_methods
  in
  (* Synthesize the default constructor when a class declares none. *)
  let has_ctor = List.exists (fun m -> String.equal m.Jtype.mi_name "<init>") methods in
  let methods =
    if cd.Ast.cd_interface || has_ctor then methods
    else
      {
        Jtype.mi_name = "<init>";
        mi_sig = { Jtype.params = []; ret = Jtype.Void };
        mi_static = false;
        mi_public = true;
        mi_abstract = false;
        mi_native = false;
      }
      :: methods
  in
  {
    Jtype.ci_name = name;
    ci_interface = cd.Ast.cd_interface;
    ci_abstract = cd.Ast.cd_mods.Ast.m_abstract || cd.Ast.cd_interface;
    ci_super = super;
    ci_interfaces = interfaces;
    ci_fields = fields;
    ci_methods = methods;
  }

(* Duplicate-member sanity checks. *)
let check_class_wellformed genv (ci : Jtype.class_info) pos =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if Hashtbl.mem seen f.Jtype.fi_name then
        type_error pos "duplicate field %s in %s" f.Jtype.fi_name ci.Jtype.ci_name;
      Hashtbl.replace seen f.Jtype.fi_name ())
    ci.Jtype.ci_fields;
  let seen_m = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let key = m.Jtype.mi_name ^ Jtype.msig_descriptor m.Jtype.mi_sig in
      if Hashtbl.mem seen_m key then
        type_error pos "duplicate method %s%s in %s" m.Jtype.mi_name
          (Jtype.msig_descriptor m.Jtype.mi_sig) ci.Jtype.ci_name;
      Hashtbl.replace seen_m key ())
    ci.Jtype.ci_methods;
  (* Super must exist and be a class; interfaces must be interfaces. *)
  (match ci.Jtype.ci_super with
  | Some super ->
    let sci = find_class genv pos super in
    if sci.Jtype.ci_interface then
      type_error pos "%s extends interface %s" ci.Jtype.ci_name super;
    ignore (super_chain genv pos ci.Jtype.ci_name)
  | None -> ());
  List.iter
    (fun i ->
      let ici = find_class genv pos i in
      if not ici.Jtype.ci_interface then
        type_error pos "%s implements non-interface %s" ci.Jtype.ci_name i)
    ci.Jtype.ci_interfaces

let super_default_ctor genv pos class_name =
  match (find_class genv pos class_name).Jtype.ci_super with
  | None -> None
  | Some super ->
    let sci = find_class genv pos super in
    let has_noarg =
      List.exists
        (fun m -> String.equal m.Jtype.mi_name "<init>" && m.Jtype.mi_sig.Jtype.params = [])
        sci.Jtype.ci_methods
    in
    if not has_noarg then
      type_error pos "superclass %s of %s has no no-argument constructor" super class_name;
    Some super

(* Check a method body, producing a tmethod. *)
let check_method genv ~class_name ~(instance_inits : (string * Ast.expr) list) (_cd : Ast.class_decl)
    (md : Ast.method_decl) : Tast.tmethod =
  let pos = md.Ast.md_pos in
  let is_ctor = md.Ast.md_ret = None in
  let static = md.Ast.md_mods.Ast.m_static in
  let ret =
    match md.Ast.md_ret with
    | None -> Jtype.Void
    | Some te -> resolve_type genv pos te
  in
  let params =
    List.map (fun (te, name) -> (resolve_type genv pos te, name)) md.Ast.md_params
  in
  let msig = { Jtype.params = List.map fst params; ret } in
  let ctx =
    {
      genv;
      current_class = class_name;
      static;
      return_type = ret;
      scopes = [];
      max_locals = 0;
      is_ctor;
    }
  in
  push_scope ctx;
  if not static then ignore (declare_local ctx pos "this" (Jtype.Class class_name));
  List.iter (fun (ty, name) -> ignore (declare_local ctx pos name ty)) params;
  let body_stmts = Option.value md.Ast.md_body ~default:[] in
  let native = md.Ast.md_mods.Ast.m_native in
  let tbody =
    if md.Ast.md_body = None then []
    else begin
      (* Constructors: explicit or implicit super call, then instance
         field initialisers, then the user body. *)
      let super_part, rest =
        if not is_ctor then ([], body_stmts)
        else begin
          match body_stmts with
          | { Ast.sdesc = Ast.S_super args; spos } :: rest ->
            (* Explicit super(...) call: overload-resolve against the
               superclass's constructors; no no-arg requirement. *)
            let args = List.map (check_expr ctx) args in
            let super = (find_class genv spos class_name).Jtype.ci_super in
            begin
              match super with
              | None -> ([], rest) (* Object: no super call *)
              | Some super_name ->
                let sci = find_class genv spos super_name in
                let ctors =
                  List.filter_map
                    (fun m ->
                      if String.equal m.Jtype.mi_name "<init>" then Some (super_name, m)
                      else None)
                    sci.Jtype.ci_methods
                in
                let arg_types = List.map (fun a -> a.Tast.ty) args in
                let _, mi =
                  select_overload genv spos
                    ~what:(Printf.sprintf "constructor %s" super_name)
                    ctors arg_types
                in
                let args =
                  List.map2 (fun a p -> coerce ctx spos a p) args mi.Jtype.mi_sig.Jtype.params
                in
                ([ Tast.Ts_super (super_name, mi.Jtype.mi_sig, args) ], rest)
            end
          | rest ->
            (match (find_class genv pos class_name).Jtype.ci_super with
            | None -> ([], rest)
            | Some super_name ->
              ignore (super_default_ctor genv pos class_name);
              ( [ Tast.Ts_super (super_name, { Jtype.params = []; ret = Jtype.Void }, []) ],
                rest ))
        end
      in
      let init_part =
        if not is_ctor then []
        else
          List.map
            (fun (fname, init_expr) ->
              let this_tex = mk (Jtype.Class class_name) Tast.T_this in
              match find_field genv pos class_name fname with
              | Some (decl_class, fi) ->
                let rhs = coerce ctx pos (check_expr ctx init_expr) fi.Jtype.fi_type in
                Tast.Ts_expr
                  (mk fi.Jtype.fi_type
                     (Tast.T_assign (Tast.Lv_field (this_tex, decl_class, fname), rhs)))
              | None -> assert false)
            instance_inits
      in
      let user_part = List.concat_map (check_stmt ctx) rest in
      super_part @ init_part @ user_part
    end
  in
  pop_scope ctx;
  if
    md.Ast.md_body <> None
    && (not (Jtype.equal ret Jtype.Void))
    && not (always_returns tbody)
  then type_error pos "method %s.%s does not return on all paths" class_name md.Ast.md_name;
  {
    Tast.tm_class = class_name;
    tm_name = md.Ast.md_name;
    tm_sig = msig;
    tm_static = static;
    tm_native = native && md.Ast.md_body = None;
    tm_max_locals = ctx.max_locals;
    tm_body = tbody;
  }

(* Build the <clinit> method from static field initialisers. *)
let check_clinit genv ~class_name (statics : (string * Ast.expr) list) : Tast.tmethod option =
  if statics = [] then None
  else begin
    let ctx =
      {
        genv;
        current_class = class_name;
        static = true;
        return_type = Jtype.Void;
        scopes = [];
        max_locals = 0;
        is_ctor = false;
      }
    in
    push_scope ctx;
    let stmts =
      List.map
        (fun (fname, init_expr) ->
          let pos = init_expr.Ast.pos in
          match find_field genv pos class_name fname with
          | Some (decl_class, fi) ->
            let rhs = coerce ctx pos (check_expr ctx init_expr) fi.Jtype.fi_type in
            Tast.Ts_expr
              (mk fi.Jtype.fi_type (Tast.T_assign (Tast.Lv_static (decl_class, fname), rhs)))
          | None -> assert false)
        statics
    in
    pop_scope ctx;
    Some
      {
        Tast.tm_class = class_name;
        tm_name = "<clinit>";
        tm_sig = { Jtype.params = []; ret = Jtype.Void };
        tm_static = true;
        tm_native = false;
        tm_max_locals = ctx.max_locals;
        tm_body = stmts;
      }
  end


(* Check a batch of compilation units together.  Classes in different
   units may reference each other freely (the paper's
   compileClasses(String[], String[]) API compiles a batch). *)
let check_units ~env (units : (Ast.comp_unit * string option) list) : Tast.tclass list =
  (* Batch-wide class name table. *)
  let batch_names =
    List.concat_map
      (fun (cu, _) ->
        List.map
          (fun cd -> (cd.Ast.cd_name, full_name cu.Ast.cu_package cd.Ast.cd_name))
          cu.Ast.cu_classes)
      units
  in
  let local_infos : (string, Jtype.class_info) Hashtbl.t = Hashtbl.create 16 in
  let lookup name =
    match Hashtbl.find_opt local_infos name with
    | Some ci -> Some ci
    | None -> env.Jtype.find_class name
  in
  let known name =
    List.exists (fun (_, fqn) -> String.equal fqn name) batch_names
    || (match lookup name with Some _ -> true | None -> false)
  in
  let batch_simple simple =
    match List.find_opt (fun (s, _) -> String.equal s simple) batch_names with
    | Some (_, fqn) -> Some fqn
    | None -> None
  in
  let genv_of_unit (cu : Ast.comp_unit) =
    let local_names = List.map (fun cd -> cd.Ast.cd_name) cu.Ast.cu_classes in
    let resolver =
      make_resolver ~known ~batch_simple ~package:cu.Ast.cu_package
        ~imports:cu.Ast.cu_imports ~local_names
    in
    { env = { Jtype.find_class = lookup }; resolve = resolver }
  in
  let unit_genvs = List.map (fun (cu, src) -> (cu, src, genv_of_unit cu)) units in
  (* Phase 1: build class infos for the whole batch. *)
  let per_unit_infos =
    List.map
      (fun (cu, src, genv) ->
        let infos =
          List.map (fun cd -> class_info_of_decl genv cu.Ast.cu_package cd) cu.Ast.cu_classes
        in
        List.iter (fun ci -> Hashtbl.replace local_infos ci.Jtype.ci_name ci) infos;
        (cu, src, genv, infos))
      unit_genvs
  in
  (* Phase 2: well-formedness, then method bodies. *)
  List.concat_map
    (fun (cu, source, genv, infos) ->
      List.iter2
        (fun cd ci -> check_class_wellformed genv ci cd.Ast.cd_pos)
        cu.Ast.cu_classes infos;
      List.map2
        (fun cd ci ->
          let class_name = ci.Jtype.ci_name in
          let is_static fd = fd.Ast.fd_mods.Ast.m_static || cd.Ast.cd_interface in
          let instance_inits =
            List.filter_map
              (fun fd ->
                match fd.Ast.fd_init with
                | Some e when not (is_static fd) -> Some (fd.Ast.fd_name, e)
                | _ -> None)
              cd.Ast.cd_fields
          in
          let static_inits =
            List.filter_map
              (fun fd ->
                match fd.Ast.fd_init with
                | Some e when is_static fd -> Some (fd.Ast.fd_name, e)
                | _ -> None)
              cd.Ast.cd_fields
          in
          (* Only methods with bodies are checked and compiled here;
             native, abstract and interface method signatures flow through
             class_info into the class file as code-less methods. *)
          let declared_methods =
            List.filter_map
              (fun md ->
                if md.Ast.md_body = None then None
                else Some (check_method genv ~class_name ~instance_inits cd md))
              cd.Ast.cd_methods
          in
          let methods =
            if
              cd.Ast.cd_interface
              || List.exists
                   (fun md -> String.equal md.Ast.md_name "<init>")
                   cd.Ast.cd_methods
            then declared_methods
            else begin
              let synth_md =
                {
                  Ast.md_mods = { Ast.no_modifiers with Ast.m_public = true };
                  md_ret = None;
                  md_name = "<init>";
                  md_params = [];
                  md_throws = [];
                  md_body = Some [];
                  md_pos = cd.Ast.cd_pos;
                }
              in
              check_method genv ~class_name ~instance_inits cd synth_md :: declared_methods
            end
          in
          let methods =
            match check_clinit genv ~class_name static_inits with
            | Some clinit -> clinit :: methods
            | None -> methods
          in
          { Tast.tc_info = ci; tc_methods = methods; tc_source = source })
        cu.Ast.cu_classes infos)
    per_unit_infos
