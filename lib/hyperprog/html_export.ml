(* HTML publishing of hyper-programs (Section 6, Future Work — implemented
   here): each hyper-program is rendered as an HTML page with its
   hyper-links represented as URLs, as was done to publish the Napier88
   compiler source.  Links into the store use a store:// URL scheme
   carrying the oid, so a published page can be navigated alongside a
   store dump. *)

open Pstore
open Minijava

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The URL a hyper-link is rendered as.  Components (class names, member
   names, descriptors, printed values) are raw data here; whoever embeds
   the URL in markup must escape it — [render_anchor] does. *)
let link_url = function
  | Hyperlink.L_object oid -> Printf.sprintf "store://object/%d" (Oid.to_int oid)
  | Hyperlink.L_primitive v -> Printf.sprintf "store://value/%s" (Pvalue.to_string v)
  | Hyperlink.L_type ty -> Printf.sprintf "store://type/%s" (Jtype.descriptor ty)
  | Hyperlink.L_static_method { cls; name; desc } ->
    Printf.sprintf "store://method/%s.%s%s" cls name desc
  | Hyperlink.L_instance_method { cls; name; desc } ->
    Printf.sprintf "store://method/%s.%s%s" cls name desc
  | Hyperlink.L_constructor { cls; desc } -> Printf.sprintf "store://constructor/%s%s" cls desc
  | Hyperlink.L_static_field { cls; name } -> Printf.sprintf "store://field/%s.%s" cls name
  | Hyperlink.L_instance_field { target; cls; name } ->
    Printf.sprintf "store://field/%d/%s.%s" (Oid.to_int target) cls name
  | Hyperlink.L_array_element { array; index } ->
    Printf.sprintf "store://element/%d/%d" (Oid.to_int array) index

(* Class names, descriptors and printed values are user-controlled text:
   escaping the whole href closes the attribute-breakout a quote in a
   class name would otherwise open. *)
let render_anchor ?(href = fun _ link -> link_url link) i link label =
  Printf.sprintf "<a class=\"hyperlink\" href=\"%s\">%s</a>" (escape (href i link))
    (escape label)

(* Render a hyper-program body: escaped text with anchors spliced in at
   link positions.  [links] are (link number, (pos, link, label)) pairs;
   [href] maps (link number, link) to the URL to emit — the live
   dashboard points links at its own pages. *)
let render_body ?href text links =
  fst
    (Editing_form.splice ~transform:escape text
       (List.map (fun (i, (pos, link, label)) -> (pos, render_anchor ?href i link label, ())) links))

let page_style =
  "body { font-family: monospace; background: #fdfdfd; }\n\
   pre { border: 1px solid #ccc; padding: 1em; }\n\
   a.hyperlink { background: #dde8ff; border: 1px solid #88a; border-radius: 3px;\n\
  \  padding: 0 0.3em; text-decoration: none; }\n"

(* The one page template: a titled HTML page around [body_html]. *)
let page ~title body_html =
  Printf.sprintf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>\n<style>\n%s</style></head>\n\
     <body>\n<h1>%s</h1>\n%s\n</body></html>\n"
    (escape title) page_style (escape title) body_html

let export_form form =
  let flat = Editing_form.to_flat form in
  page ~title:form.Editing_form.class_name
    (Printf.sprintf "<pre>%s</pre>"
       (render_body flat.Editing_form.text (List.mapi (fun i l -> (i, l)) flat.Editing_form.flat_links)))

let readable links =
  List.filter_map
    (fun (i, _, r) -> Result.to_option (Result.map (fun s -> (i, Editing_form.flat_link s)) r))
    links

(* A link whose record cannot be read is named after the text. *)
let export vm hp_oid =
  let links = Storage_form.readable_links vm hp_oid in
  let unreadable =
    List.filter_map
      (function
        | i, _, Error reason ->
          Some (Printf.sprintf "\n<p>%s</p>" (escape (Storage_form.describe_unreadable i reason)))
        | _, _, Ok _ -> None)
      links
  in
  page ~title:(Storage_form.class_name vm hp_oid)
    (Printf.sprintf "<pre>%s</pre>%s"
       (render_body (Storage_form.text vm hp_oid) (readable links))
       (String.concat "" unreadable))

(* An index page over several hyper-programs. *)
let index_page (entries : (string * string) list) =
  let items =
    entries
    |> List.map (fun (name, href) ->
           Printf.sprintf "<li><a href=\"%s\">%s</a></li>" (escape href) (escape name))
    |> String.concat "\n"
  in
  Printf.sprintf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>Hyper-programs</title></head>\n\
     <body><h1>Published hyper-programs</h1><ul>\n%s\n</ul></body></html>\n"
    items

let display_name vm uid hp_oid =
  let name = Storage_form.class_name vm hp_oid in
  if name = "" then Printf.sprintf "hp%d" uid else name

(* Export every live registered hyper-program into a directory. *)
let export_all vm ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let entries =
    List.map
      (fun (uid, hp_oid) ->
        let name = display_name vm uid hp_oid in
        let file = Printf.sprintf "%s.html" name in
        let html = export vm hp_oid in
        let oc = open_out (Filename.concat dir file) in
        output_string oc html;
        close_out oc;
        (name, file))
      (Registry.live_programs vm)
  in
  let oc = open_out (Filename.concat dir "index.html") in
  output_string oc (index_page entries);
  close_out oc;
  List.map fst entries

(* -- the live dashboard (served by the hyper-programming server) ------------

   The same Section 6 publishing, but rendered on demand over the open
   store instead of exported to files: hyper-links become URLs into the
   dashboard itself, and each page carries a broken-link census computed
   with the registry's salvage reads.  Every string that reaches these
   pages — class names, labels, program text, failure reasons (including
   the BrokenLink placeholder's) — is user-controlled and escaped. *)

(* A dashboard page: the page template with a link back to the index. *)
let live_html ~title body_html = page ~title (body_html ^ "\n<p><a href=\"/\">index</a></p>")

(* The broken-link census from one read of a program's links: each
   link's number, label, and the value getLink answers or why it cannot.
   Salvage reads only — never an exception. *)
let census vm links =
  List.map
    (fun (i, oid, r) ->
      match r with
      | Ok (s : Storage_form.link_spec) ->
        (i, s.Storage_form.label, Result.map_error Failure.describe (Registry.link_status vm oid))
      | Error reason -> (i, "", Error (Storage_form.describe_unreadable i reason)))
    links

let broken census = List.length (List.filter (fun (_, _, s) -> Result.is_error s) census)

let live_page vm ~uid =
  match Registry.hp_at vm uid with
  | Pvalue.Ref hp_oid ->
    let href i _link = Printf.sprintf "/hp/%d/link/%d" uid i in
    let links = Storage_form.readable_links vm hp_oid in
    let census = census vm links in
    let rows =
      census
      |> List.map (fun (i, label, status) ->
             Printf.sprintf "<li><a href=\"/hp/%d/link/%d\">link %d</a> <code>%s</code> — %s</li>"
               uid i i (escape label)
               (match status with
               | Ok v -> Printf.sprintf "ok: <code>%s</code>" (escape (Pvalue.to_string v))
               | Error reason -> Printf.sprintf "<b>broken</b>: %s" (escape reason)))
      |> String.concat "\n"
    in
    Some
      (live_html
         ~title:(Printf.sprintf "hyper-program %d: %s" uid (display_name vm uid hp_oid))
         (Printf.sprintf "<pre>%s</pre>\n<h2>hyper-links (%d, %d broken)</h2>\n<ul>\n%s\n</ul>"
            (render_body ~href (Storage_form.text vm hp_oid) (readable links))
            (List.length census) (broken census) rows))
  | _ -> None

let live_link_page vm ~uid ~link =
  let title = Printf.sprintf "hyper-program %d, link %d" uid link in
  let answer =
    match Registry.try_get_link vm ~password:Registry.built_in_password ~hp:uid ~link with
    | Ok v -> Printf.sprintf "value: <code>%s</code>" (escape (Pvalue.to_string v))
    | Error f -> Printf.sprintf "<b>broken link</b>: %s" (escape (Failure.describe f))
  in
  live_html ~title
    (Printf.sprintf "<p>%s</p>\n<p><a href=\"/hp/%d\">back to the program</a></p>" answer uid)

let live_index vm =
  let programs = Registry.live_programs vm in
  let total_broken = ref 0 in
  let rows =
    programs
    |> List.map (fun (uid, hp_oid) ->
           match (display_name vm uid hp_oid, census vm (Storage_form.readable_links vm hp_oid)) with
           | exception Quarantine.Quarantined (_, reason) ->
             (* the program's own record is damaged: one row says so *)
             Printf.sprintf "<li><a href=\"/hp/%d\">hp%d</a> — <b>unreadable</b>: %s</li>" uid uid
               (escape reason)
           | name, census ->
             let broken = broken census in
             total_broken := !total_broken + broken;
             Printf.sprintf "<li><a href=\"/hp/%d\">%s</a> — %d link%s%s</li>" uid (escape name)
               (List.length census)
               (if List.length census = 1 then "" else "s")
               (if broken > 0 then Printf.sprintf ", <b>%d broken</b>" broken else ""))
    |> String.concat "\n"
  in
  live_html ~title:"Live hyper-programs"
    (Printf.sprintf "<p>%d program%s, %d broken link%s</p>\n<ul>\n%s\n</ul>"
       (List.length programs)
       (if List.length programs = 1 then "" else "s")
       !total_broken
       (if !total_broken = 1 then "" else "s")
       rows)

(* Plain-text printing (the paper's §6 "printing of hyper-programs is
   hindered by the presence of hyper-links"): links become bracketed
   footnote indices, with the link descriptions listed after the text. *)
let plain_text vm hp_oid =
  let links = Storage_form.readable_links vm hp_oid in
  let text, _ =
    Editing_form.splice (Storage_form.text vm hp_oid)
      (List.map (fun (i, (pos, _, _)) -> (pos, Printf.sprintf "[%d]" (i + 1), ())) (readable links))
  in
  match links with
  | [] -> text
  | _ ->
    text ^ "---\n"
    ^ String.concat ""
        (List.map
           (fun (i, _, r) ->
             match r with
             | Ok (s : Storage_form.link_spec) ->
               Format.asprintf "[%d] %s = %a\n" (i + 1) s.Storage_form.label Hyperlink.pp
                 s.Storage_form.link
             | Error reason ->
               Printf.sprintf "[%d] %s\n" (i + 1) (Storage_form.describe_unreadable i reason))
           links)
