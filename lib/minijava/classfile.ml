(* Serialisable class files.  A class file is the unit the dynamic
   compiler produces and the class loader consumes; stored in the
   persistent store's blob table they make classes persistent.  Each class
   file optionally carries its source text — the paper's "association from
   executable programs to source programs".  The encoded source field is
   tagged: 0 for none, 1 for the text inline, 2 for the key of a blob that
   holds the text.  The store's class blobs use the key form, so the text
   of a compilation unit is stored once however many classes it defines
   (see Linker); batches and evolution archives carry the text inline. *)

open Pstore

let magic = "MJCLASS1"

type field = {
  f_name : string;
  f_desc : string;
  f_static : bool;
  f_final : bool;
  f_public : bool;
}

type meth = {
  m_name : string;
  m_desc : string;
  m_static : bool;
  m_native : bool;
  m_abstract : bool;
  m_public : bool;
  m_code : Bytecode.code option;
}

type t = {
  cf_name : string;
  cf_interface : bool;
  cf_abstract : bool;
  cf_super : string option;
  cf_interfaces : string list;
  cf_fields : field list;
  cf_methods : meth list;
  cf_source : string option; (* source program association *)
}

(* -- class_info view ------------------------------------------------------ *)

let to_class_info cf =
  {
    Jtype.ci_name = cf.cf_name;
    ci_interface = cf.cf_interface;
    ci_abstract = cf.cf_abstract;
    ci_super = cf.cf_super;
    ci_interfaces = cf.cf_interfaces;
    ci_fields =
      List.map
        (fun f ->
          {
            Jtype.fi_name = f.f_name;
            fi_type = Jtype.of_descriptor f.f_desc;
            fi_static = f.f_static;
            fi_final = f.f_final;
            fi_public = f.f_public;
          })
        cf.cf_fields;
    ci_methods =
      List.map
        (fun m ->
          {
            Jtype.mi_name = m.m_name;
            mi_sig = Jtype.msig_of_descriptor m.m_desc;
            mi_static = m.m_static;
            mi_public = m.m_public;
            mi_abstract = m.m_abstract;
            mi_native = m.m_native;
          })
        cf.cf_methods;
  }

(* -- binary encoding ------------------------------------------------------ *)

let encode_const w c =
  let open Codec in
  match c with
  | Bytecode.Kint n -> put_u8 w 0; put_i32 w n
  | Bytecode.Klong n -> put_u8 w 1; put_i64 w n
  | Bytecode.Kfloat f -> put_u8 w 2; put_f64 w f
  | Bytecode.Kdouble f -> put_u8 w 3; put_f64 w f
  | Bytecode.Kbool b -> put_u8 w 4; put_bool w b
  | Bytecode.Kchar n -> put_u8 w 5; put_i32 w (Int32.of_int n)
  | Bytecode.Kbyte n -> put_u8 w 6; put_i32 w (Int32.of_int n)
  | Bytecode.Kshort n -> put_u8 w 7; put_i32 w (Int32.of_int n)
  | Bytecode.Kstr s -> put_u8 w 8; put_string w s
  | Bytecode.Knull -> put_u8 w 9

let decode_const r =
  let open Codec in
  match get_u8 r with
  | 0 -> Bytecode.Kint (get_i32 r)
  | 1 -> Bytecode.Klong (get_i64 r)
  | 2 -> Bytecode.Kfloat (get_f64 r)
  | 3 -> Bytecode.Kdouble (get_f64 r)
  | 4 -> Bytecode.Kbool (get_bool r)
  | 5 -> Bytecode.Kchar (Int32.to_int (get_i32 r))
  | 6 -> Bytecode.Kbyte (Int32.to_int (get_i32 r))
  | 7 -> Bytecode.Kshort (Int32.to_int (get_i32 r))
  | 8 -> Bytecode.Kstr (get_string r)
  | 9 -> Bytecode.Knull
  | n -> Codec.decode_error "Classfile: bad const tag %d" n

let numkind_code = function
  | Bytecode.Nint -> 0
  | Bytecode.Nlong -> 1
  | Bytecode.Nfloat -> 2
  | Bytecode.Ndouble -> 3

let numkind_of_code = function
  | 0 -> Bytecode.Nint
  | 1 -> Bytecode.Nlong
  | 2 -> Bytecode.Nfloat
  | 3 -> Bytecode.Ndouble
  | n -> Codec.decode_error "Classfile: bad numkind %d" n

let cmpkind_code = function
  | Bytecode.Cmp_int -> 0
  | Bytecode.Cmp_long -> 1
  | Bytecode.Cmp_float -> 2
  | Bytecode.Cmp_double -> 3
  | Bytecode.Cmp_ref -> 4
  | Bytecode.Cmp_bool -> 5

let cmpkind_of_code = function
  | 0 -> Bytecode.Cmp_int
  | 1 -> Bytecode.Cmp_long
  | 2 -> Bytecode.Cmp_float
  | 3 -> Bytecode.Cmp_double
  | 4 -> Bytecode.Cmp_ref
  | 5 -> Bytecode.Cmp_bool
  | n -> Codec.decode_error "Classfile: bad cmpkind %d" n

let cmpop_code = function
  | Bytecode.Ceq -> 0
  | Bytecode.Cne -> 1
  | Bytecode.Clt -> 2
  | Bytecode.Cle -> 3
  | Bytecode.Cgt -> 4
  | Bytecode.Cge -> 5

let cmpop_of_code = function
  | 0 -> Bytecode.Ceq
  | 1 -> Bytecode.Cne
  | 2 -> Bytecode.Clt
  | 3 -> Bytecode.Cle
  | 4 -> Bytecode.Cgt
  | 5 -> Bytecode.Cge
  | n -> Codec.decode_error "Classfile: bad cmpop %d" n

let encode_instr w i =
  let open Codec in
  let open Bytecode in
  match i with
  | Const c -> put_u8 w 0; encode_const w c
  | Load n -> put_u8 w 1; put_int w n
  | Store n -> put_u8 w 2; put_int w n
  | Dup -> put_u8 w 3
  | Pop -> put_u8 w 4
  | Add k -> put_u8 w 5; put_u8 w (numkind_code k)
  | Sub k -> put_u8 w 6; put_u8 w (numkind_code k)
  | Mul k -> put_u8 w 7; put_u8 w (numkind_code k)
  | Div k -> put_u8 w 8; put_u8 w (numkind_code k)
  | Rem k -> put_u8 w 9; put_u8 w (numkind_code k)
  | Neg k -> put_u8 w 10; put_u8 w (numkind_code k)
  | Band k -> put_u8 w 11; put_u8 w (numkind_code k)
  | Bor k -> put_u8 w 12; put_u8 w (numkind_code k)
  | Bxor k -> put_u8 w 13; put_u8 w (numkind_code k)
  | Shl k -> put_u8 w 14; put_u8 w (numkind_code k)
  | Shr k -> put_u8 w 15; put_u8 w (numkind_code k)
  | Ushr k -> put_u8 w 16; put_u8 w (numkind_code k)
  | Bnot k -> put_u8 w 17; put_u8 w (numkind_code k)
  | Conv (a, b) -> put_u8 w 18; put_u8 w (numkind_code a); put_u8 w (numkind_code b)
  | Not -> put_u8 w 19
  | Trunc Tbyte -> put_u8 w 44
  | Trunc Tshort -> put_u8 w 45
  | Trunc Tchar -> put_u8 w 46
  | Cmp (op, k) -> put_u8 w 20; put_u8 w (cmpop_code op); put_u8 w (cmpkind_code k)
  | Concat -> put_u8 w 21
  | To_string -> put_u8 w 22
  | Get_static (c, f) -> put_u8 w 23; put_string w c; put_string w f
  | Put_static (c, f) -> put_u8 w 24; put_string w c; put_string w f
  | Get_field (c, f) -> put_u8 w 25; put_string w c; put_string w f
  | Put_field (c, f) -> put_u8 w 26; put_string w c; put_string w f
  | Array_load -> put_u8 w 27
  | Array_store -> put_u8 w 28
  | Array_len -> put_u8 w 29
  | New_obj c -> put_u8 w 30; put_string w c
  | New_array d -> put_u8 w 31; put_string w d
  | New_multi_array (d, n) -> put_u8 w 32; put_string w d; put_int w n
  | Invoke_static (c, m, d) -> put_u8 w 33; put_string w c; put_string w m; put_string w d
  | Invoke_virtual (c, m, d) -> put_u8 w 34; put_string w c; put_string w m; put_string w d
  | Invoke_special (c, d) -> put_u8 w 35; put_string w c; put_string w d
  | Check_cast d -> put_u8 w 36; put_string w d
  | Instance_of d -> put_u8 w 37; put_string w d
  | Jump t -> put_u8 w 38; put_int w t
  | Jump_if_false t -> put_u8 w 39; put_int w t
  | Jump_if_true t -> put_u8 w 40; put_int w t
  | Ret -> put_u8 w 41
  | Ret_val -> put_u8 w 42
  | Trap msg -> put_u8 w 43; put_string w msg
  | Throw -> put_u8 w 47

let decode_instr r =
  let open Codec in
  let open Bytecode in
  match get_u8 r with
  | 0 -> Const (decode_const r)
  | 1 -> Load (get_int r)
  | 2 -> Store (get_int r)
  | 3 -> Dup
  | 4 -> Pop
  | 5 -> Add (numkind_of_code (get_u8 r))
  | 6 -> Sub (numkind_of_code (get_u8 r))
  | 7 -> Mul (numkind_of_code (get_u8 r))
  | 8 -> Div (numkind_of_code (get_u8 r))
  | 9 -> Rem (numkind_of_code (get_u8 r))
  | 10 -> Neg (numkind_of_code (get_u8 r))
  | 11 -> Band (numkind_of_code (get_u8 r))
  | 12 -> Bor (numkind_of_code (get_u8 r))
  | 13 -> Bxor (numkind_of_code (get_u8 r))
  | 14 -> Shl (numkind_of_code (get_u8 r))
  | 15 -> Shr (numkind_of_code (get_u8 r))
  | 16 -> Ushr (numkind_of_code (get_u8 r))
  | 17 -> Bnot (numkind_of_code (get_u8 r))
  | 18 ->
    let a = numkind_of_code (get_u8 r) in
    let b = numkind_of_code (get_u8 r) in
    Conv (a, b)
  | 19 -> Not
  | 20 ->
    let op = cmpop_of_code (get_u8 r) in
    let k = cmpkind_of_code (get_u8 r) in
    Cmp (op, k)
  | 21 -> Concat
  | 22 -> To_string
  | 23 ->
    let c = get_string r in
    Get_static (c, get_string r)
  | 24 ->
    let c = get_string r in
    Put_static (c, get_string r)
  | 25 ->
    let c = get_string r in
    Get_field (c, get_string r)
  | 26 ->
    let c = get_string r in
    Put_field (c, get_string r)
  | 27 -> Array_load
  | 28 -> Array_store
  | 29 -> Array_len
  | 30 -> New_obj (get_string r)
  | 31 -> New_array (get_string r)
  | 32 ->
    let d = get_string r in
    New_multi_array (d, get_int r)
  | 33 ->
    let c = get_string r in
    let m = get_string r in
    Invoke_static (c, m, get_string r)
  | 34 ->
    let c = get_string r in
    let m = get_string r in
    Invoke_virtual (c, m, get_string r)
  | 35 ->
    let c = get_string r in
    Invoke_special (c, get_string r)
  | 36 -> Check_cast (get_string r)
  | 37 -> Instance_of (get_string r)
  | 38 -> Jump (get_int r)
  | 39 -> Jump_if_false (get_int r)
  | 40 -> Jump_if_true (get_int r)
  | 41 -> Ret
  | 42 -> Ret_val
  | 43 -> Trap (get_string r)
  | 47 -> Throw
  | 44 -> Trunc Tbyte
  | 45 -> Trunc Tshort
  | 46 -> Trunc Tchar
  | n -> Codec.decode_error "Classfile: bad instr tag %d" n

let encode_handler w (h : Bytecode.handler) =
  let open Codec in
  put_int w h.Bytecode.h_start;
  put_int w h.Bytecode.h_stop;
  put_int w h.Bytecode.h_target;
  put_string w h.Bytecode.h_desc;
  put_int w h.Bytecode.h_slot

let decode_handler r =
  let open Codec in
  let h_start = get_int r in
  let h_stop = get_int r in
  let h_target = get_int r in
  let h_desc = get_string r in
  let h_slot = get_int r in
  { Bytecode.h_start; h_stop; h_target; h_desc; h_slot }

let encode_code w { Bytecode.max_locals; instrs; handlers } =
  let open Codec in
  put_int w max_locals;
  put_array w encode_instr instrs;
  put_list w encode_handler handlers

let decode_code r =
  let open Codec in
  let max_locals = get_int r in
  let instrs = get_array r decode_instr in
  let handlers = get_list r decode_handler in
  { Bytecode.max_locals; instrs; handlers }

let encode_field w f =
  let open Codec in
  put_string w f.f_name;
  put_string w f.f_desc;
  put_bool w f.f_static;
  put_bool w f.f_final;
  put_bool w f.f_public

let decode_field r =
  let open Codec in
  let f_name = get_string r in
  let f_desc = get_string r in
  let f_static = get_bool r in
  let f_final = get_bool r in
  let f_public = get_bool r in
  { f_name; f_desc; f_static; f_final; f_public }

let encode_method w m =
  let open Codec in
  put_string w m.m_name;
  put_string w m.m_desc;
  put_bool w m.m_static;
  put_bool w m.m_native;
  put_bool w m.m_abstract;
  put_bool w m.m_public;
  put_option w encode_code m.m_code

let decode_method r =
  let open Codec in
  let m_name = get_string r in
  let m_desc = get_string r in
  let m_static = get_bool r in
  let m_native = get_bool r in
  let m_abstract = get_bool r in
  let m_public = get_bool r in
  let m_code = get_option r decode_code in
  { m_name; m_desc; m_static; m_native; m_abstract; m_public; m_code }

let encode ?source_key cf =
  let open Codec in
  let w = writer () in
  put_bytes w magic;
  put_string w cf.cf_name;
  put_bool w cf.cf_interface;
  put_bool w cf.cf_abstract;
  put_option w (fun w s -> put_string w s) cf.cf_super;
  put_list w (fun w s -> put_string w s) cf.cf_interfaces;
  put_list w encode_field cf.cf_fields;
  put_list w encode_method cf.cf_methods;
  (match cf.cf_source, source_key with
  | None, _ -> put_u8 w 0
  | Some text, None -> put_u8 w 1; put_string w text
  | Some _, Some key -> put_u8 w 2; put_string w key);
  contents w

let no_resolver key = Codec.decode_error "Classfile: source is stored under key %s" key

let decode ?(source = no_resolver) data =
  let open Codec in
  let r = reader data in
  let m = get_bytes r (String.length magic) in
  if not (String.equal m magic) then Codec.decode_error "Classfile: bad magic %S" m;
  let cf_name = get_string r in
  let cf_interface = get_bool r in
  let cf_abstract = get_bool r in
  let cf_super = get_option r get_string in
  let cf_interfaces = get_list r get_string in
  let cf_fields = get_list r decode_field in
  let cf_methods = get_list r decode_method in
  let cf_source =
    match get_u8 r with
    | 0 -> None
    | 1 -> Some (get_string r)
    | 2 -> Some (source (get_string r))
    | n -> Codec.decode_error "Classfile: bad source tag %d" n
  in
  { cf_name; cf_interface; cf_abstract; cf_super; cf_interfaces; cf_fields; cf_methods; cf_source }

(* Encode a batch of class files, as produced for one compilation. *)
let encode_batch cfs =
  let open Codec in
  let w = writer () in
  put_list w (fun w cf -> put_string w (encode cf)) cfs;
  contents w

let decode_batch data =
  let open Codec in
  let r = reader data in
  get_list r (fun r -> decode (get_string r))
