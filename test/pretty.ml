(* Pretty-printer from MiniJava AST back to source text, for the parser
   round-trip property tests. *)

open Minijava
open Format

let prim_name = function
  | Ast.Pboolean -> "boolean"
  | Ast.Pbyte -> "byte"
  | Ast.Pshort -> "short"
  | Ast.Pchar -> "char"
  | Ast.Pint -> "int"
  | Ast.Plong -> "long"
  | Ast.Pfloat -> "float"
  | Ast.Pdouble -> "double"
  | Ast.Pvoid -> "void"

let rec pp_type ppf = function
  | Ast.Te_prim p -> pp_print_string ppf (prim_name p)
  | Ast.Te_name path -> pp_print_string ppf (Ast.dotted path)
  | Ast.Te_array elem -> fprintf ppf "%a[]" pp_type elem
  | Ast.Te_hyper n -> fprintf ppf "#<%d>" n

let escape_char_code code =
  match code with
  | 10 -> "\\n"
  | 9 -> "\\t"
  | 13 -> "\\r"
  | 8 -> "\\b"
  | 12 -> "\\f"
  | 92 -> "\\\\"
  | 39 -> "\\'"
  | 34 -> "\\\""
  | c when c >= 32 && c < 127 -> String.make 1 (Char.chr c)
  | c -> Printf.sprintf "\\u%04x" c

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_lit ppf = function
  | Ast.L_int n -> fprintf ppf "%ld" n
  | Ast.L_long n -> fprintf ppf "%LdL" n
  | Ast.L_float f ->
    if Float.is_integer f && Float.abs f < 1e15 then fprintf ppf "%.1ff" f
    else fprintf ppf "%sf" (Printf.sprintf "%.17g" f)
  | Ast.L_double f ->
    if Float.is_integer f && Float.abs f < 1e15 then fprintf ppf "%.1f" f
    else fprintf ppf "%s" (Printf.sprintf "%.17g" f)
  | Ast.L_bool b -> pp_print_bool ppf b
  | Ast.L_char c -> fprintf ppf "'%s'" (escape_char_code c)
  | Ast.L_string s -> fprintf ppf "\"%s\"" (escape_string s)
  | Ast.L_null -> pp_print_string ppf "null"

let binop_name = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.And -> "&&"
  | Ast.Or -> "||"
  | Ast.Bit_and -> "&"
  | Ast.Bit_or -> "|"
  | Ast.Bit_xor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Ushr -> ">>>"

let unop_name = function
  | Ast.Neg -> "-"
  | Ast.Not -> "!"
  | Ast.Bit_not -> "~"

(* Fully parenthesised expression output: correctness over prettiness, and
   the parser round-trip stays unambiguous. *)
let rec pp_expr ppf { Ast.desc; _ } =
  match desc with
  | Ast.E_lit lit -> pp_lit ppf lit
  | Ast.E_name path -> pp_print_string ppf (Ast.dotted path)
  | Ast.E_this -> pp_print_string ppf "this"
  | Ast.E_field (e, name) -> fprintf ppf "%a.%s" pp_atom e name
  | Ast.E_index (e, idx) -> fprintf ppf "%a[%a]" pp_atom e pp_expr idx
  | Ast.E_call (e, name, args) -> fprintf ppf "%a.%s(%a)" pp_atom e name pp_args args
  | Ast.E_call_name (path, args) -> fprintf ppf "%s(%a)" (Ast.dotted path) pp_args args
  | Ast.E_new (path, args) -> fprintf ppf "new %s(%a)" (Ast.dotted path) pp_args args
  | Ast.E_new_array (ty, sizes, extra) ->
    fprintf ppf "new %a" pp_type ty;
    List.iter (fun e -> fprintf ppf "[%a]" pp_expr e) sizes;
    for _ = 1 to extra do
      pp_print_string ppf "[]"
    done
  | Ast.E_cast (ty, e) -> fprintf ppf "((%a) %a)" pp_type ty pp_atom e
  | Ast.E_instanceof (e, ty) -> fprintf ppf "(%a instanceof %a)" pp_atom e pp_type ty
  | Ast.E_unop (op, e) -> fprintf ppf "(%s%a)" (unop_name op) pp_atom e
  | Ast.E_binop (op, a, b) -> fprintf ppf "(%a %s %a)" pp_atom a (binop_name op) pp_atom b
  | Ast.E_assign (lhs, rhs) -> fprintf ppf "%a = %a" pp_atom lhs pp_expr rhs
  | Ast.E_op_assign (op, lhs, rhs) ->
    fprintf ppf "%a %s= %a" pp_atom lhs (binop_name op) pp_expr rhs
  | Ast.E_incr { prefix; up; target } ->
    let op = if up then "++" else "--" in
    if prefix then fprintf ppf "%s%a" op pp_atom target
    else fprintf ppf "%a%s" pp_atom target op
  | Ast.E_cond (c, t, e) -> fprintf ppf "(%a ? %a : %a)" pp_atom c pp_expr t pp_expr e
  | Ast.E_hyper n -> fprintf ppf "#<%d>" n
  | Ast.E_call_hyper (n, args) -> fprintf ppf "#<%d>(%a)" n pp_args args
  | Ast.E_new_hyper (n, args) -> fprintf ppf "new #<%d>(%a)" n pp_args args

and pp_atom ppf e =
  match e.Ast.desc with
  | Ast.E_assign _ | Ast.E_op_assign _ -> fprintf ppf "(%a)" pp_expr e
  | _ -> pp_expr ppf e

and pp_args ppf args =
  pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_expr ppf args

let rec pp_stmt ppf { Ast.sdesc; _ } =
  match sdesc with
  | Ast.S_expr e -> fprintf ppf "%a;" pp_expr e
  | Ast.S_local (ty, decls) ->
    let pp_decl ppf (name, init) =
      match init with
      | None -> pp_print_string ppf name
      | Some e -> fprintf ppf "%s = %a" name pp_expr e
    in
    fprintf ppf "%a %a;" pp_type ty
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_decl)
      decls
  | Ast.S_if (cond, then_, else_) -> begin
    fprintf ppf "@[<v 2>if (%a) {@,%a@]@,}" pp_expr cond pp_block_body then_;
    match else_ with
    | None -> ()
    | Some e -> fprintf ppf "@[<v 2> else {@,%a@]@,}" pp_block_body e
  end
  | Ast.S_while (cond, body) ->
    fprintf ppf "@[<v 2>while (%a) {@,%a@]@,}" pp_expr cond pp_block_body body
  | Ast.S_do_while (body, cond) ->
    fprintf ppf "@[<v 2>do {@,%a@]@,} while (%a);" pp_block_body body pp_expr cond
  | Ast.S_switch (scrut, cases) ->
    fprintf ppf "@[<v 2>switch (%a) {@," pp_expr scrut;
    List.iter
      (fun (c : Ast.switch_case) ->
        List.iter
          (function
            | Some lit -> fprintf ppf "case %a:@," pp_lit lit
            | None -> fprintf ppf "default:@,")
          c.Ast.case_labels;
        if c.Ast.case_body <> [] then fprintf ppf "@[<v 2>  %a@]@," pp_stmts c.Ast.case_body)
      cases;
    fprintf ppf "@]}"
  | Ast.S_for (init, cond, update, body) ->
    let pp_init ppf = function
      | None -> ()
      | Some (Ast.Fi_local (ty, decls)) ->
        let pp_decl ppf (name, e) =
          match e with
          | None -> pp_print_string ppf name
          | Some e -> fprintf ppf "%s = %a" name pp_expr e
        in
        fprintf ppf "%a %a" pp_type ty
          (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_decl)
          decls
      | Some (Ast.Fi_exprs es) ->
        pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_expr ppf es
    in
    let pp_cond ppf = function
      | None -> ()
      | Some e -> pp_expr ppf e
    in
    fprintf ppf "@[<v 2>for (%a; %a; %a) {@,%a@]@,}" pp_init init pp_cond cond
      (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_expr)
      update pp_block_body body
  | Ast.S_throw e -> fprintf ppf "throw %a;" pp_expr e
  | Ast.S_try (body, catches) ->
    fprintf ppf "@[<v 2>try {@,%a@]@,}" pp_stmts body;
    List.iter
      (fun (c : Ast.catch_clause) ->
        fprintf ppf "@[<v 2> catch (%a %s) {@,%a@]@,}" pp_type c.Ast.catch_type
          c.Ast.catch_name pp_stmts c.Ast.catch_body)
      catches
  | Ast.S_return None -> pp_print_string ppf "return;"
  | Ast.S_return (Some e) -> fprintf ppf "return %a;" pp_expr e
  | Ast.S_block stmts -> fprintf ppf "@[<v 2>{@,%a@]@,}" pp_stmts stmts
  | Ast.S_break -> pp_print_string ppf "break;"
  | Ast.S_continue -> pp_print_string ppf "continue;"
  | Ast.S_super args -> fprintf ppf "super(%a);" pp_args args

and pp_block_body ppf stmt =
  match stmt.Ast.sdesc with
  | Ast.S_block stmts -> pp_stmts ppf stmts
  | _ -> pp_stmt ppf stmt

and pp_stmts ppf stmts =
  pp_print_list ~pp_sep:pp_print_cut pp_stmt ppf stmts

let pp_modifiers ppf mods =
  let word b s = if b then fprintf ppf "%s " s in
  word mods.Ast.m_public "public";
  word mods.Ast.m_private "private";
  word mods.Ast.m_protected "protected";
  word mods.Ast.m_abstract "abstract";
  word mods.Ast.m_static "static";
  word mods.Ast.m_final "final";
  word mods.Ast.m_native "native"

let pp_field class_name ppf fd =
  ignore class_name;
  fprintf ppf "%a%a %s" pp_modifiers fd.Ast.fd_mods pp_type fd.Ast.fd_type fd.Ast.fd_name;
  (match fd.Ast.fd_init with
  | None -> ()
  | Some e -> fprintf ppf " = %a" pp_expr e);
  pp_print_string ppf ";"

let pp_method class_name ppf md =
  pp_modifiers ppf md.Ast.md_mods;
  (match md.Ast.md_ret with
  | None -> pp_print_string ppf class_name
  | Some ty -> fprintf ppf "%a %s" pp_type ty md.Ast.md_name);
  let pp_param ppf (ty, name) = fprintf ppf "%a %s" pp_type ty name in
  fprintf ppf "(%a)"
    (pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf ", ") pp_param)
    md.Ast.md_params;
  (match md.Ast.md_throws with
  | [] -> ()
  | names ->
    fprintf ppf " throws %s" (String.concat ", " (List.map Ast.dotted names)));
  match md.Ast.md_body with
  | None -> pp_print_string ppf ";"
  | Some body -> fprintf ppf " @[<v 2>{@,%a@]@,}" pp_stmts body

let pp_class ppf cd =
  pp_modifiers ppf cd.Ast.cd_mods;
  fprintf ppf "%s %s" (if cd.Ast.cd_interface then "interface" else "class") cd.Ast.cd_name;
  (match cd.Ast.cd_super with
  | None -> ()
  | Some path -> fprintf ppf " extends %s" (Ast.dotted path));
  (match cd.Ast.cd_impls with
  | [] -> ()
  | impls ->
    fprintf ppf " %s %s"
      (if cd.Ast.cd_interface then "extends" else "implements")
      (String.concat ", " (List.map Ast.dotted impls)));
  fprintf ppf " @[<v 2>{@,";
  let first = ref true in
  let sep () = if !first then first := false else pp_print_cut ppf () in
  List.iter
    (fun fd ->
      sep ();
      pp_field cd.Ast.cd_name ppf fd)
    cd.Ast.cd_fields;
  List.iter
    (fun md ->
      sep ();
      pp_method cd.Ast.cd_name ppf md)
    cd.Ast.cd_methods;
  fprintf ppf "@]@,}"

let pp_unit ppf cu =
  (match cu.Ast.cu_package with
  | None -> ()
  | Some path -> fprintf ppf "package %s;@," (Ast.dotted path));
  List.iter (fun path -> fprintf ppf "import %s;@," (Ast.dotted path)) cu.Ast.cu_imports;
  pp_print_list ~pp_sep:pp_print_cut pp_class ppf cu.Ast.cu_classes

let unit_to_string cu = Format.asprintf "@[<v>%a@]@." pp_unit cu
let expr_to_string e = Format.asprintf "%a" pp_expr e
