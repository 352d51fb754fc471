(* The editing form (Section 5.2, Figure 11): a hyper-program optimised
   for editing.  The text is split into lines; each hyper-link's position
   is a (line, offset) pair.  The editor operates on this form and
   translates to/from the storage form when a hyper-program is saved to or
   loaded from the persistent store. *)

type link = {
  link : Hyperlink.t;
  label : string;
  offset : int; (* column within the line, 0-based, in [0 .. length line] *)
}

type line = {
  text : string;
  links : link list; (* sorted by offset *)
}

type t = {
  lines : line list;
  class_name : string;
}

let sort_links links = List.stable_sort (fun a b -> Int.compare a.offset b.offset) links

let line_count form = List.length form.lines

let total_links form = List.fold_left (fun acc l -> acc + List.length l.links) 0 form.lines

(* -- flat representation ---------------------------------------------------
   The storage form keeps one text string with absolute link positions;
   the editing form keeps lines with relative positions.  These two
   conversions are inverses (a qcheck property). *)

type flat = {
  text : string;
  flat_links : (int * Hyperlink.t * string) list; (* (absolute pos, link, label) *)
}

(* -- the splice --------------------------------------------------------------
   The one loop that lays insertions into a text at link positions, for
   every form that shows a hyper-program as one string: the textual form,
   HTML, plain text, .hp and the parser's placeholder text. *)

exception Bad_link_position of { pos : int; text_length : int }

type 'a origin =
  | Text of int (* offset in the input text where the segment starts *)
  | Inserted of 'a

let splice ?(transform = Fun.id) text (insertions : (int * string * 'a) list) =
  let len = String.length text in
  let buf = Buffer.create (len + 64) in
  let segments = ref [] in
  let emit origin s =
    if s <> "" then begin
      segments := (Buffer.length buf, String.length s, origin) :: !segments;
      Buffer.add_string buf s
    end
  in
  let add_text cursor n = emit (Text cursor) (transform (String.sub text cursor n)) in
  let rec go cursor = function
    | [] -> add_text cursor (len - cursor)
    | (pos, insertion, tag) :: rest ->
      if pos < 0 || pos > len then raise (Bad_link_position { pos; text_length = len });
      add_text cursor (pos - cursor);
      emit (Inserted tag) insertion;
      go pos rest
  in
  go 0 (List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) insertions);
  (Buffer.contents buf, List.rev !segments)

let flat_link (s : Storage_form.link_spec) =
  (s.Storage_form.pos, s.Storage_form.link, s.Storage_form.label)

let to_flat form =
  let buf = Buffer.create 256 in
  let links = ref [] in
  List.iteri
    (fun i (line : line) ->
      if i > 0 then Buffer.add_char buf '\n';
      let line_start = Buffer.length buf in
      Buffer.add_string buf line.text;
      List.iter
        (fun l -> links := (line_start + l.offset, l.link, l.label) :: !links)
        line.links)
    form.lines;
  { text = Buffer.contents buf; flat_links = List.rev !links }

let of_flat ~class_name { text; flat_links } =
  let line_texts = String.split_on_char '\n' text in
  let line_texts = if line_texts = [] then [ "" ] else line_texts in
  (* Compute each line's absolute start offset. *)
  let starts =
    let acc = ref 0 in
    List.map
      (fun t ->
        let s = !acc in
        acc := s + String.length t + 1;
        (s, t))
      line_texts
  in
  let lines =
    List.map
      (fun (start, t) ->
        let len = String.length t in
        let links =
          List.filter_map
            (fun (pos, link, label) ->
              if pos >= start && pos <= start + len then
                Some { link; label; offset = pos - start }
              else None)
            flat_links
        in
        { text = t; links = sort_links links })
      starts
  in
  { lines; class_name }

(* -- storage-form conversion ------------------------------------------------ *)

(* A link whose record cannot be read is left out: the editing form has
   no way to show it, and the other links keep their places. *)
let of_storage vm hp_oid =
  let text = Storage_form.text vm hp_oid in
  let flat_links =
    List.filter_map
      (fun (_, _, r) -> Result.to_option (Result.map flat_link r))
      (Storage_form.readable_links vm hp_oid)
  in
  of_flat ~class_name:(Storage_form.class_name vm hp_oid) { text; flat_links }

let to_storage vm form =
  let { text; flat_links } = to_flat form in
  let links =
    List.map
      (fun (pos, link, label) -> { Storage_form.link; label; pos })
      flat_links
  in
  Storage_form.create vm ~class_name:form.class_name ~text ~links

(* -- inspection --------------------------------------------------------------- *)

let equal a b =
  a.class_name = b.class_name
  && List.length a.lines = List.length b.lines
  && List.for_all2
       (fun (la : line) (lb : line) ->
         String.equal la.text lb.text
         && List.length la.links = List.length lb.links
         && List.for_all2
              (fun x y ->
                x.offset = y.offset && String.equal x.label y.label
                && Hyperlink.equal x.link y.link)
              la.links lb.links)
       a.lines b.lines
