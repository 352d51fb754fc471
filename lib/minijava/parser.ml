(* Recursive-descent parser for MiniJava with single-point backtracking for
   the classic cast/parenthesis ambiguity and for local-declaration versus
   expression statements.  While parsing it records the syntactic role of
   every hyper-link placeholder; the hyper-program editor uses those roles
   to decide whether an insertion is syntactically legal (Table 1). *)

exception Parse_error of Lexer.pos * string

let parse_error pos fmt = Format.kasprintf (fun s -> raise (Parse_error (pos, s))) fmt

type state = {
  tokens : (Token.t * Lexer.pos) array;
  mutable index : int;
  mutable hypers : (int * Ast.hyper_role) list;
}

let make_state tokens = { tokens; index = 0; hypers = [] }

let peek st = fst st.tokens.(st.index)
let peek_pos st = snd st.tokens.(st.index)

let peek_ahead st n =
  let i = st.index + n in
  if i < Array.length st.tokens then fst st.tokens.(i) else Token.Eof

let advance st = if st.index < Array.length st.tokens - 1 then st.index <- st.index + 1

let next st =
  let tok = peek st and pos = peek_pos st in
  advance st;
  (tok, pos)

let expect st tok =
  let got, pos = next st in
  if not (Token.equal got tok) then
    parse_error pos "expected '%s' but found '%s'" (Token.to_string tok) (Token.to_string got)

let accept st tok =
  if Token.equal (peek st) tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match next st with
  | Token.Ident name, _ -> name
  | tok, pos -> parse_error pos "expected identifier but found '%s'" (Token.to_string tok)

let record_hyper st n role = st.hypers <- (n, role) :: st.hypers

(* Saving and restoring for backtracking.  Recorded hyper roles are also
   rolled back so speculative parses do not pollute the role list. *)
type mark = {
  mk_index : int;
  mk_hypers : (int * Ast.hyper_role) list;
}

let mark st = { mk_index = st.index; mk_hypers = st.hypers }

let reset st m =
  st.index <- m.mk_index;
  st.hypers <- m.mk_hypers

(* -- names and types ------------------------------------------------------ *)

let parse_qname st =
  let first = expect_ident st in
  let rec go acc =
    if Token.equal (peek st) Token.Dot then begin
      match peek_ahead st 1 with
      | Token.Ident name ->
        advance st;
        advance st;
        go (name :: acc)
      | _ -> List.rev acc
    end
    else List.rev acc
  in
  go [ first ]

let prim_of_token = function
  | Token.Kboolean -> Some Ast.Pboolean
  | Token.Kbyte -> Some Ast.Pbyte
  | Token.Kshort -> Some Ast.Pshort
  | Token.Kchar -> Some Ast.Pchar
  | Token.Kint -> Some Ast.Pint
  | Token.Klong -> Some Ast.Plong
  | Token.Kfloat -> Some Ast.Pfloat
  | Token.Kdouble -> Some Ast.Pdouble
  | Token.Kvoid -> Some Ast.Pvoid
  | _ -> None

let rec add_array_dims st base =
  if Token.equal (peek st) Token.Lbracket && Token.equal (peek_ahead st 1) Token.Rbracket
  then begin
    advance st;
    advance st;
    add_array_dims st (Ast.Te_array base)
  end
  else base

let parse_type st =
  let base =
    match peek st with
    | Token.Hyperlink n ->
      advance st;
      record_hyper st n Ast.Role_type;
      Ast.Te_hyper n
    | tok -> begin
      match prim_of_token tok with
      | Some p ->
        advance st;
        Ast.Te_prim p
      | None -> Ast.Te_name (parse_qname st)
    end
  in
  add_array_dims st base

(* -- expressions ---------------------------------------------------------- *)

let binop_of_op_assign = function
  | Token.Plus_eq -> Some Ast.Add
  | Token.Minus_eq -> Some Ast.Sub
  | Token.Star_eq -> Some Ast.Mul
  | Token.Slash_eq -> Some Ast.Div
  | Token.Percent_eq -> Some Ast.Mod
  | _ -> None

let mk pos desc = { Ast.pos; desc }

(* Tokens that may start a cast operand; used to disambiguate `(T) x` from
   `(e) + x`. *)
let starts_cast_operand = function
  | Token.Ident _ | Token.Int_lit _ | Token.Long_lit _ | Token.Float_lit _
  | Token.Double_lit _ | Token.Char_lit _ | Token.String_lit _ | Token.Hyperlink _
  | Token.Lparen | Token.Bang | Token.Tilde | Token.Knew | Token.Kthis | Token.Knull
  | Token.Ktrue | Token.Kfalse -> true
  | _ -> false

let rec parse_expr st = parse_assignment st

and parse_assignment st =
  let lhs = parse_cond st in
  match peek st with
  | Token.Assign ->
    let pos = peek_pos st in
    advance st;
    let rhs = parse_assignment st in
    mk pos (Ast.E_assign (lhs, rhs))
  | tok -> begin
    match binop_of_op_assign tok with
    | Some op ->
      let pos = peek_pos st in
      advance st;
      let rhs = parse_assignment st in
      mk pos (Ast.E_op_assign (op, lhs, rhs))
    | None -> lhs
  end

and parse_cond st =
  let cond = parse_or st in
  if Token.equal (peek st) Token.Question then begin
    let pos = peek_pos st in
    advance st;
    let then_ = parse_expr st in
    expect st Token.Colon;
    let else_ = parse_cond st in
    mk pos (Ast.E_cond (cond, then_, else_))
  end
  else cond

and parse_binop_level st ops sub =
  let rec go lhs =
    let tok = peek st in
    match List.assoc_opt tok ops with
    | Some op ->
      let pos = peek_pos st in
      advance st;
      let rhs = sub st in
      go (mk pos (Ast.E_binop (op, lhs, rhs)))
    | None -> lhs
  in
  go (sub st)

and parse_or st = parse_binop_level st [ (Token.Or_or, Ast.Or) ] parse_and
and parse_and st = parse_binop_level st [ (Token.And_and, Ast.And) ] parse_bitor
and parse_bitor st = parse_binop_level st [ (Token.Bar, Ast.Bit_or) ] parse_bitxor
and parse_bitxor st = parse_binop_level st [ (Token.Caret, Ast.Bit_xor) ] parse_bitand
and parse_bitand st = parse_binop_level st [ (Token.Amp, Ast.Bit_and) ] parse_equality

and parse_equality st =
  parse_binop_level st [ (Token.Eq, Ast.Eq); (Token.Ne, Ast.Ne) ] parse_relational

and parse_relational st =
  let rec go lhs =
    match peek st with
    | Token.Lt | Token.Le | Token.Gt | Token.Ge ->
      let op =
        match peek st with
        | Token.Lt -> Ast.Lt
        | Token.Le -> Ast.Le
        | Token.Gt -> Ast.Gt
        | _ -> Ast.Ge
      in
      let pos = peek_pos st in
      advance st;
      let rhs = parse_shift st in
      go (mk pos (Ast.E_binop (op, lhs, rhs)))
    | Token.Kinstanceof ->
      let pos = peek_pos st in
      advance st;
      let ty = parse_type st in
      go (mk pos (Ast.E_instanceof (lhs, ty)))
    | _ -> lhs
  in
  go (parse_shift st)

and parse_shift st =
  parse_binop_level st
    [ (Token.Shl, Ast.Shl); (Token.Shr, Ast.Shr); (Token.Ushr, Ast.Ushr) ]
    parse_additive

and parse_additive st =
  parse_binop_level st [ (Token.Plus, Ast.Add); (Token.Minus, Ast.Sub) ] parse_multiplicative

and parse_multiplicative st =
  parse_binop_level st
    [ (Token.Star, Ast.Mul); (Token.Slash, Ast.Div); (Token.Percent, Ast.Mod) ]
    parse_unary

and parse_unary st =
  let pos = peek_pos st in
  match peek st with
  | Token.Minus ->
    advance st;
    mk pos (Ast.E_unop (Ast.Neg, parse_unary st))
  | Token.Plus ->
    advance st;
    parse_unary st
  | Token.Bang ->
    advance st;
    mk pos (Ast.E_unop (Ast.Not, parse_unary st))
  | Token.Tilde ->
    advance st;
    mk pos (Ast.E_unop (Ast.Bit_not, parse_unary st))
  | Token.Plus_plus ->
    advance st;
    mk pos (Ast.E_incr { prefix = true; up = true; target = parse_unary st })
  | Token.Minus_minus ->
    advance st;
    mk pos (Ast.E_incr { prefix = true; up = false; target = parse_unary st })
  | Token.Lparen -> begin
    (* Speculatively parse a cast; fall back to a parenthesised expression. *)
    let m = mark st in
    match try_parse_cast st pos with
    | Some e -> e
    | None ->
      reset st m;
      parse_postfix st
  end
  | _ -> parse_postfix st

and try_parse_cast st pos =
  (* Assumes current token is Lparen. *)
  advance st;
  match peek st with
  | tok when prim_of_token tok <> None && prim_of_token tok <> Some Ast.Pvoid ->
    let ty = parse_type st in
    if accept st Token.Rparen then Some (mk pos (Ast.E_cast (ty, parse_unary st))) else None
  | Token.Ident _ | Token.Hyperlink _ -> begin
    match (try Some (parse_type st) with Parse_error _ -> None) with
    | Some ty ->
      let is_array = match ty with Ast.Te_array _ -> true | _ -> false in
      if
        Token.equal (peek st) Token.Rparen
        && (is_array || starts_cast_operand (peek_ahead st 1))
      then begin
        advance st;
        Some (mk pos (Ast.E_cast (ty, parse_unary st)))
      end
      else None
    | None -> None
  end
  | _ -> None

and parse_args st =
  expect st Token.Lparen;
  if accept st Token.Rparen then []
  else begin
    let rec go acc =
      let e = parse_expr st in
      if accept st Token.Comma then go (e :: acc)
      else begin
        expect st Token.Rparen;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_new st pos =
  (* 'new' already consumed *)
  match peek st with
  | Token.Hyperlink n ->
    advance st;
    record_hyper st n Ast.Role_ctor;
    let args = parse_args st in
    mk pos (Ast.E_new_hyper (n, args))
  | tok -> begin
    let base_type =
      match prim_of_token tok with
      | Some p when p <> Ast.Pvoid ->
        advance st;
        Ast.Te_prim p
      | Some _ | None -> Ast.Te_name (parse_qname st)
    in
    match peek st, base_type with
    | Token.Lparen, Ast.Te_name path ->
      let args = parse_args st in
      mk pos (Ast.E_new (path, args))
    | Token.Lbracket, _ ->
      let rec sized_dims acc =
        if
          Token.equal (peek st) Token.Lbracket
          && not (Token.equal (peek_ahead st 1) Token.Rbracket)
        then begin
          advance st;
          let e = parse_expr st in
          expect st Token.Rbracket;
          sized_dims (e :: acc)
        end
        else List.rev acc
      in
      let sizes = sized_dims [] in
      if sizes = [] then parse_error pos "array creation needs at least one sized dimension";
      let rec empty_dims n =
        if
          Token.equal (peek st) Token.Lbracket && Token.equal (peek_ahead st 1) Token.Rbracket
        then begin
          advance st;
          advance st;
          empty_dims (n + 1)
        end
        else n
      in
      let extra = empty_dims 0 in
      mk pos (Ast.E_new_array (base_type, sizes, extra))
    | _ -> parse_error pos "malformed 'new' expression"
  end

and parse_postfix st =
  let pos = peek_pos st in
  (* A "pending" dotted name that has not yet committed to being a value. *)
  let rec postfix_loop expr =
    match peek st with
    | Token.Dot -> begin
      match peek_ahead st 1 with
      | Token.Ident name ->
        advance st;
        advance st;
        if Token.equal (peek st) Token.Lparen then begin
          let args = parse_args st in
          postfix_loop (mk pos (Ast.E_call (expr, name, args)))
        end
        else postfix_loop (mk pos (Ast.E_field (expr, name)))
      | tok -> parse_error (peek_pos st) "expected member name after '.', found '%s'" (Token.to_string tok)
    end
    | Token.Lbracket ->
      advance st;
      let idx = parse_expr st in
      expect st Token.Rbracket;
      postfix_loop (mk pos (Ast.E_index (expr, idx)))
    | Token.Plus_plus ->
      advance st;
      postfix_loop (mk pos (Ast.E_incr { prefix = false; up = true; target = expr }))
    | Token.Minus_minus ->
      advance st;
      postfix_loop (mk pos (Ast.E_incr { prefix = false; up = false; target = expr }))
    | _ -> expr
  in
  (* Pending dotted-name loop: collect `a.b.c`; a trailing '(' makes it a
     named call, anything else turns it into E_name and continues. *)
  let rec name_loop path =
    match peek st, peek_ahead st 1 with
    | Token.Dot, Token.Ident name -> begin
      match peek_ahead st 2 with
      | Token.Lparen ->
        advance st;
        advance st;
        let args = parse_args st in
        postfix_loop (mk pos (Ast.E_call_name (List.rev (name :: path), args)))
      | _ ->
        advance st;
        advance st;
        name_loop (name :: path)
    end
    | _ -> postfix_loop (mk pos (Ast.E_name (List.rev path)))
  in
  match next st with
  | Token.Int_lit n, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_int n)))
  | Token.Long_lit n, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_long n)))
  | Token.Float_lit f, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_float f)))
  | Token.Double_lit f, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_double f)))
  | Token.Char_lit c, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_char c)))
  | Token.String_lit s, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_string s)))
  | Token.Ktrue, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_bool true)))
  | Token.Kfalse, _ -> postfix_loop (mk pos (Ast.E_lit (Ast.L_bool false)))
  | Token.Knull, _ -> postfix_loop (mk pos (Ast.E_lit Ast.L_null))
  | Token.Kthis, _ -> postfix_loop (mk pos Ast.E_this)
  | Token.Knew, _ -> postfix_loop (parse_new st pos)
  | Token.Lparen, _ ->
    let e = parse_expr st in
    expect st Token.Rparen;
    postfix_loop e
  | Token.Hyperlink n, _ ->
    if Token.equal (peek st) Token.Lparen then begin
      record_hyper st n Ast.Role_callee;
      let args = parse_args st in
      postfix_loop (mk pos (Ast.E_call_hyper (n, args)))
    end
    else begin
      record_hyper st n Ast.Role_primary;
      postfix_loop (mk pos (Ast.E_hyper n))
    end
  | Token.Ident name, _ ->
    if Token.equal (peek st) Token.Lparen then begin
      let args = parse_args st in
      postfix_loop (mk pos (Ast.E_call_name ([ name ], args)))
    end
    else name_loop [ name ]
  | tok, p -> parse_error p "unexpected token '%s' in expression" (Token.to_string tok)

(* -- statements ----------------------------------------------------------- *)

let rec parse_stmt st =
  let pos = peek_pos st in
  let smk sdesc = { Ast.spos = pos; sdesc } in
  match peek st with
  | Token.Lbrace ->
    advance st;
    let stmts = parse_stmts_until st Token.Rbrace in
    smk (Ast.S_block stmts)
  | Token.Kif ->
    advance st;
    expect st Token.Lparen;
    let cond = parse_expr st in
    expect st Token.Rparen;
    let then_ = parse_stmt st in
    let else_ = if accept st Token.Kelse then Some (parse_stmt st) else None in
    smk (Ast.S_if (cond, then_, else_))
  | Token.Kwhile ->
    advance st;
    expect st Token.Lparen;
    let cond = parse_expr st in
    expect st Token.Rparen;
    smk (Ast.S_while (cond, parse_stmt st))
  | Token.Kdo ->
    advance st;
    let body = parse_stmt st in
    expect st Token.Kwhile;
    expect st Token.Lparen;
    let cond = parse_expr st in
    expect st Token.Rparen;
    expect st Token.Semi;
    smk (Ast.S_do_while (body, cond))
  | Token.Kswitch ->
    advance st;
    expect st Token.Lparen;
    let scrut = parse_expr st in
    expect st Token.Rparen;
    expect st Token.Lbrace;
    let parse_label () =
      if accept st Token.Kdefault then begin
        expect st Token.Colon;
        None
      end
      else begin
        expect st Token.Kcase;
        let negate = accept st Token.Minus in
        let lit =
          match next st with
          | Token.Int_lit n, _ -> Ast.L_int (if negate then Int32.neg n else n)
          | Token.Long_lit n, _ -> Ast.L_long (if negate then Int64.neg n else n)
          | Token.Char_lit c, _ when not negate -> Ast.L_char c
          | tok, p ->
            parse_error p "expected a case constant, found '%s'" (Token.to_string tok)
        in
        expect st Token.Colon;
        Some lit
      end
    in
    let at_label () =
      Token.equal (peek st) Token.Kcase || Token.equal (peek st) Token.Kdefault
    in
    let rec parse_cases acc =
      if accept st Token.Rbrace then List.rev acc
      else begin
        let rec labels acc = if at_label () then labels (parse_label () :: acc) else List.rev acc in
        let case_labels = labels [ parse_label () ] in
        let rec body acc =
          if at_label () || Token.equal (peek st) Token.Rbrace then List.rev acc
          else if Token.equal (peek st) Token.Eof then
            parse_error (peek_pos st) "unexpected end of input in switch"
          else body (parse_stmt st :: acc)
        in
        parse_cases ({ Ast.case_labels; case_body = body [] } :: acc)
      end
    in
    smk (Ast.S_switch (scrut, parse_cases []))
  | Token.Kfor ->
    advance st;
    expect st Token.Lparen;
    let init =
      if Token.equal (peek st) Token.Semi then begin
        advance st;
        None
      end
      else begin
        let m = mark st in
        match try_parse_local_decl st with
        | Some (ty, decls) ->
          expect st Token.Semi;
          Some (Ast.Fi_local (ty, decls))
        | None ->
          reset st m;
          let rec exprs acc =
            let e = parse_expr st in
            if accept st Token.Comma then exprs (e :: acc) else List.rev (e :: acc)
          in
          let es = exprs [] in
          expect st Token.Semi;
          Some (Ast.Fi_exprs es)
      end
    in
    let cond =
      if Token.equal (peek st) Token.Semi then None else Some (parse_expr st)
    in
    expect st Token.Semi;
    let update =
      if Token.equal (peek st) Token.Rparen then []
      else begin
        let rec exprs acc =
          let e = parse_expr st in
          if accept st Token.Comma then exprs (e :: acc) else List.rev (e :: acc)
        in
        exprs []
      end
    in
    expect st Token.Rparen;
    smk (Ast.S_for (init, cond, update, parse_stmt st))
  | Token.Kthrow ->
    advance st;
    let e = parse_expr st in
    expect st Token.Semi;
    smk (Ast.S_throw e)
  | Token.Ktry ->
    advance st;
    expect st Token.Lbrace;
    let body = parse_stmts_until st Token.Rbrace in
    let rec catches acc =
      if accept st Token.Kcatch then begin
        expect st Token.Lparen;
        let catch_type = parse_type st in
        let catch_name = expect_ident st in
        expect st Token.Rparen;
        expect st Token.Lbrace;
        let catch_body = parse_stmts_until st Token.Rbrace in
        catches ({ Ast.catch_type; catch_name; catch_body } :: acc)
      end
      else List.rev acc
    in
    let clauses = catches [] in
    if Token.equal (peek st) Token.Kfinally then
      parse_error (peek_pos st) "finally is not supported (see README limitations)";
    if clauses = [] then parse_error pos "try without catch";
    smk (Ast.S_try (body, clauses))
  | Token.Kreturn ->
    advance st;
    if accept st Token.Semi then smk (Ast.S_return None)
    else begin
      let e = parse_expr st in
      expect st Token.Semi;
      smk (Ast.S_return (Some e))
    end
  | Token.Kbreak ->
    advance st;
    expect st Token.Semi;
    smk Ast.S_break
  | Token.Kcontinue ->
    advance st;
    expect st Token.Semi;
    smk Ast.S_continue
  | Token.Ksuper when Token.equal (peek_ahead st 1) Token.Lparen ->
    advance st;
    let args = parse_args st in
    expect st Token.Semi;
    smk (Ast.S_super args)
  | Token.Semi ->
    advance st;
    smk (Ast.S_block [])
  | _ -> begin
    let m = mark st in
    match try_parse_local_decl st with
    | Some (ty, decls) ->
      expect st Token.Semi;
      smk (Ast.S_local (ty, decls))
    | None ->
      reset st m;
      let e = parse_expr st in
      expect st Token.Semi;
      smk (Ast.S_expr e)
  end

and try_parse_local_decl st =
  (* Returns Some when the upcoming tokens look like `Type ident ...`. *)
  match
    (try Some (parse_type st) with Parse_error _ | Lexer.Lex_error _ -> None)
  with
  | Some ty -> begin
    match peek st with
    | Token.Ident _ ->
      let rec declarators acc =
        let name = expect_ident st in
        let init = if accept st Token.Assign then Some (parse_expr st) else None in
        if accept st Token.Comma then declarators ((name, init) :: acc)
        else List.rev ((name, init) :: acc)
      in
      Some (ty, declarators [])
    | _ -> None
  end
  | None -> None

and parse_stmts_until st closer =
  let rec go acc =
    if Token.equal (peek st) closer then begin
      advance st;
      List.rev acc
    end
    else if Token.equal (peek st) Token.Eof then
      parse_error (peek_pos st) "unexpected end of input (missing '%s')" (Token.to_string closer)
    else go (parse_stmt st :: acc)
  in
  go []

(* -- declarations --------------------------------------------------------- *)

let parse_modifiers st =
  let rec go mods =
    match peek st with
    | Token.Kpublic ->
      advance st;
      go { mods with Ast.m_public = true }
    | Token.Kprivate ->
      advance st;
      go { mods with Ast.m_private = true }
    | Token.Kprotected ->
      advance st;
      go { mods with Ast.m_protected = true }
    | Token.Kstatic ->
      advance st;
      go { mods with Ast.m_static = true }
    | Token.Kfinal ->
      advance st;
      go { mods with Ast.m_final = true }
    | Token.Kabstract ->
      advance st;
      go { mods with Ast.m_abstract = true }
    | Token.Knative ->
      advance st;
      go { mods with Ast.m_native = true }
    | _ -> mods
  in
  go Ast.no_modifiers

let parse_throws st =
  if accept st Token.Kthrows then begin
    let rec go acc =
      let name = parse_qname st in
      if accept st Token.Comma then go (name :: acc) else List.rev (name :: acc)
    in
    go []
  end
  else []

let parse_params st =
  expect st Token.Lparen;
  if accept st Token.Rparen then []
  else begin
    let rec go acc =
      let ty = parse_type st in
      let name = expect_ident st in
      let acc = (ty, name) :: acc in
      if accept st Token.Comma then go acc
      else begin
        expect st Token.Rparen;
        List.rev acc
      end
    in
    go []
  end

let parse_member st class_name =
  let pos = peek_pos st in
  let mods = parse_modifiers st in
  (* Constructor: ClassName '(' *)
  match peek st, peek_ahead st 1 with
  | Token.Ident name, Token.Lparen when String.equal name class_name ->
    advance st;
    let params = parse_params st in
    let throws = parse_throws st in
    expect st Token.Lbrace;
    let body = parse_stmts_until st Token.Rbrace in
    `Method
      {
        Ast.md_mods = mods;
        md_ret = None;
        md_name = "<init>";
        md_params = params;
        md_throws = throws;
        md_body = Some body;
        md_pos = pos;
      }
  | _ -> begin
    let ty = parse_type st in
    let name = expect_ident st in
    if Token.equal (peek st) Token.Lparen then begin
      let params = parse_params st in
      let throws = parse_throws st in
      let body =
        if accept st Token.Semi then None
        else begin
          expect st Token.Lbrace;
          Some (parse_stmts_until st Token.Rbrace)
        end
      in
      `Method
        {
          Ast.md_mods = mods;
          md_ret = Some ty;
          md_name = name;
          md_params = params;
          md_throws = throws;
          md_body = body;
          md_pos = pos;
        }
    end
    else begin
      let rec declarators acc name =
        let init = if accept st Token.Assign then Some (parse_expr st) else None in
        let acc = (name, init) :: acc in
        if accept st Token.Comma then declarators acc (expect_ident st)
        else begin
          expect st Token.Semi;
          List.rev acc
        end
      in
      let decls = declarators [] name in
      `Fields
        (List.map
           (fun (fname, init) ->
             {
               Ast.fd_mods = mods;
               fd_type = ty;
               fd_name = fname;
               fd_init = init;
               fd_pos = pos;
             })
           decls)
    end
  end

let parse_class_decl st =
  let pos = peek_pos st in
  let mods = parse_modifiers st in
  let interface =
    match next st with
    | Token.Kclass, _ -> false
    | Token.Kinterface, _ -> true
    | tok, p -> parse_error p "expected 'class' or 'interface', found '%s'" (Token.to_string tok)
  in
  let name = expect_ident st in
  let super =
    if (not interface) && accept st Token.Kextends then Some (parse_qname st) else None
  in
  let impls =
    if accept st (if interface then Token.Kextends else Token.Kimplements) then begin
      let rec go acc =
        let n = parse_qname st in
        if accept st Token.Comma then go (n :: acc) else List.rev (n :: acc)
      in
      go []
    end
    else []
  in
  expect st Token.Lbrace;
  let fields = ref [] in
  let methods = ref [] in
  let rec members () =
    if accept st Token.Rbrace then ()
    else if Token.equal (peek st) Token.Eof then
      parse_error (peek_pos st) "unexpected end of input in class body"
    else begin
      (match parse_member st name with
      | `Method m -> methods := m :: !methods
      | `Fields fs -> fields := List.rev_append fs !fields);
      members ()
    end
  in
  members ();
  {
    Ast.cd_mods = mods;
    cd_interface = interface;
    cd_name = name;
    cd_super = super;
    cd_impls = impls;
    cd_fields = List.rev !fields;
    cd_methods = List.rev !methods;
    cd_pos = pos;
  }

let parse_comp_unit_state st =
  let package =
    if accept st Token.Kpackage then begin
      let name = parse_qname st in
      expect st Token.Semi;
      Some name
    end
    else None
  in
  let rec imports acc =
    if accept st Token.Kimport then begin
      let name = parse_qname st in
      expect st Token.Semi;
      imports (name :: acc)
    end
    else List.rev acc
  in
  let imports = imports [] in
  let rec classes acc =
    if Token.equal (peek st) Token.Eof then List.rev acc
    else classes (parse_class_decl st :: acc)
  in
  let classes = classes [] in
  { Ast.cu_package = package; cu_imports = imports; cu_classes = classes }

(* -- public entry points -------------------------------------------------- *)

type result = {
  unit_ : Ast.comp_unit;
  hyper_roles : (int * Ast.hyper_role) list;
}

let parse_unit source =
  let st = make_state (Lexer.tokenize source) in
  let unit_ = parse_comp_unit_state st in
  { unit_; hyper_roles = List.rev st.hypers }

let parse_expression source =
  let st = make_state (Lexer.tokenize source) in
  let e = parse_expr st in
  (match peek st with
  | Token.Eof -> ()
  | tok -> parse_error (peek_pos st) "trailing token '%s' after expression" (Token.to_string tok));
  (e, List.rev st.hypers)

let parse_statements source =
  let st = make_state (Lexer.tokenize source) in
  let rec go acc =
    if Token.equal (peek st) Token.Eof then List.rev acc else go (parse_stmt st :: acc)
  in
  let stmts = go [] in
  (stmts, List.rev st.hypers)
