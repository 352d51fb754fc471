(* Faces: fonts, sizes, styles and colours (Section 5.1).  The window
   editor attaches faces to text runs; rendering maps them to ANSI escape
   sequences (the AWT substitution — see DESIGN.md). *)

type colour =
  | Default
  | Black
  | Red
  | Green
  | Yellow
  | Blue
  | Magenta
  | Cyan
  | White

type t = {
  font : string; (* symbolic family name; carried for fidelity *)
  size : int;
  bold : bool;
  italic : bool;
  underline : bool;
  foreground : colour;
  background : colour;
}

let default =
  {
    font = "monospace";
    size = 12;
    bold = false;
    italic = false;
    underline = false;
    foreground = Default;
    background = Default;
  }

let keyword = { default with bold = true; foreground = Blue }
let string_lit = { default with foreground = Green }
let comment = { default with italic = true; foreground = Cyan }
let link_button = { default with underline = true; foreground = Magenta; background = White }

let equal (a : t) (b : t) = a = b

let colour_code ~bg = function
  | Default -> if bg then 49 else 39
  | Black -> if bg then 40 else 30
  | Red -> if bg then 41 else 31
  | Green -> if bg then 42 else 32
  | Yellow -> if bg then 43 else 33
  | Blue -> if bg then 44 else 34
  | Magenta -> if bg then 45 else 35
  | Cyan -> if bg then 46 else 36
  | White -> if bg then 47 else 37

(* ANSI escape prefix for a face; empty for the default face. *)
let ansi face =
  if equal face default then ""
  else begin
    let codes = ref [] in
    if face.bold then codes := 1 :: !codes;
    if face.italic then codes := 3 :: !codes;
    if face.underline then codes := 4 :: !codes;
    if face.foreground <> Default then codes := colour_code ~bg:false face.foreground :: !codes;
    if face.background <> Default then codes := colour_code ~bg:true face.background :: !codes;
    match !codes with
    | [] -> ""
    | codes ->
      "\027[" ^ String.concat ";" (List.map string_of_int (List.rev codes)) ^ "m"
  end

let ansi_reset = "\027[0m"
