(* The MiniJava stack bytecode.  Deliberately JVM-flavoured: classes are
   compiled to method code arrays, serialised into class files, and linked
   into a running VM by a class loader — the paper's compile / .class /
   ClassLoader / newInstance pipeline. *)

type const =
  | Kint of int32
  | Klong of int64
  | Kfloat of float
  | Kdouble of float
  | Kbool of bool
  | Kchar of int
  | Kbyte of int
  | Kshort of int
  | Kstr of string
  | Knull

type numkind =
  | Nint
  | Nlong
  | Nfloat
  | Ndouble

type cmpkind =
  | Cmp_int
  | Cmp_long
  | Cmp_float
  | Cmp_double
  | Cmp_ref
  | Cmp_bool

type trunckind =
  | Tbyte
  | Tshort
  | Tchar

type cmpop =
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

type instr =
  | Const of const
  | Load of int
  | Store of int
  | Dup
  | Pop
  | Add of numkind
  | Sub of numkind
  | Mul of numkind
  | Div of numkind
  | Rem of numkind
  | Neg of numkind
  | Band of numkind (* int/long only *)
  | Bor of numkind
  | Bxor of numkind
  | Shl of numkind
  | Shr of numkind
  | Ushr of numkind
  | Bnot of numkind
  | Conv of numkind * numkind
  | Trunc of trunckind (* wrap an int to byte/short/char storage range *)
  | Not (* boolean *)
  | Cmp of cmpop * cmpkind (* pushes a boolean *)
  | Concat (* string + string *)
  | To_string (* any value to its string form *)
  | Get_static of string * string
  | Put_static of string * string
  | Get_field of string * string (* stack: obj -> value *)
  | Put_field of string * string (* stack: obj value -> *)
  | Array_load (* stack: arr idx -> value *)
  | Array_store (* stack: arr idx value -> *)
  | Array_len
  | New_obj of string (* allocate with default fields, push ref *)
  | New_array of string (* element-type descriptor; stack: len -> ref *)
  | New_multi_array of string * int (* result descriptor, dim count *)
  | Invoke_static of string * string * string (* class, name, desc *)
  | Invoke_virtual of string * string * string
  | Invoke_special of string * string (* constructor: class, desc *)
  | Check_cast of string (* target type descriptor *)
  | Instance_of of string
  | Jump of int
  | Jump_if_false of int
  | Jump_if_true of int
  | Ret
  | Ret_val
  | Throw (* stack: exception object -> (unwinds) *)
  | Trap of string (* compiler-inserted runtime error *)

(* An exception handler covering instructions [start, stop): when an
   exception conforming to [desc] unwinds past a covered pc, the operand
   stack is cleared, the exception object is stored in local [slot], and
   execution continues at [target].  Handlers are matched first-to-last,
   so nested try blocks list their handlers first. *)
type handler = {
  h_start : int;
  h_stop : int;
  h_target : int;
  h_desc : string; (* catchable type descriptor *)
  h_slot : int; (* local slot of the catch parameter *)
}

type code = {
  max_locals : int;
  instrs : instr array;
  handlers : handler list;
}
