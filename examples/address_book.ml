(* Address book: a domain example of persistent program construction.

   A persistent address book is built and queried by hyper-programs.  The
   example demonstrates the paper's linking-time range (Section 7):

   - a VALUE link to a Contact captures the object itself at composition
     time — rebinding the directory entry later does not affect the
     program;
   - a LOCATION link to the `assistant` static field gives delayed
     binding — the program uses whoever the field contains when it runs;

   and the browser's sharing visualisation over the resulting graph. *)

open Pstore
open Minijava
open Hyperprog

let sources =
  [
    {|public class Contact {
  private String name;
  private String phone;
  private Contact manager;
  public Contact(String name, String phone) {
    this.name = name;
    this.phone = phone;
  }
  public String getName() { return name; }
  public String getPhone() { return phone; }
  public Contact getManager() { return manager; }
  public void setManager(Contact m) { manager = m; }
  public String toString() { return name + " <" + phone + ">"; }
}

public class Directory {
  public static Contact assistant;
  private java.util.Vector contacts;
  public Directory() { contacts = new java.util.Vector(); }
  public void add(Contact c) { contacts.addElement(c); }
  public int size() { return contacts.size(); }
  public Contact lookup(String name) {
    for (int i = 0; i < contacts.size(); i = i + 1) {
      Contact c = (Contact) contacts.elementAt(i);
      if (c.getName().equals(name)) { return c; }
    }
    return null;
  }
}
|};
  ]

let () =
  let store = Store.create () in
  let session = Hyperui.Session.create store in
  let vm = Hyperui.Session.vm session in
  ignore (Jcompiler.compile_and_load vm sources);

  (* Build the persistent address book. *)
  let new_contact name phone =
    Vm.new_instance vm ~cls:"Contact"
      ~desc:"(Ljava.lang.String;Ljava.lang.String;)V"
      [ Rt.jstring vm name; Rt.jstring vm phone ]
  in
  let directory = Vm.new_instance vm ~cls:"Directory" ~desc:"()V" [] in
  Store.Session.set_root vm.Rt.session "directory" directory;
  let ada = new_contact "ada" "+44 1334 01" in
  let grace = new_contact "grace" "+44 1334 02" in
  let alan = new_contact "alan" "+44 1334 03" in
  List.iter
    (fun c ->
      ignore (Vm.call_virtual vm ~recv:directory ~name:"add" ~desc:"(LContact;)V" [ c ]))
    [ ada; grace; alan ];
  ignore (Vm.call_virtual vm ~recv:grace ~name:"setManager" ~desc:"(LContact;)V" [ ada ]);
  ignore (Vm.call_virtual vm ~recv:alan ~name:"setManager" ~desc:"(LContact;)V" [ ada ]);
  Rt.set_static vm "Directory" "assistant" grace;

  (* -- a hyper-program with a VALUE link and a LOCATION link --------------- *)
  let ada_oid = match ada with Pvalue.Ref o -> o | _ -> assert false in
  let text =
    String.concat "\n"
      [
        "public class CallSheet {";
        "  public static void main(String[] args) {";
        "    System.println(\"boss     : \" + .toString());";
        "    System.println(\"assistant: \" + .toString());";
        "  }";
        "}";
        "";
      ]
  in
  let pos_of pat occurrence =
    let rec find i seen =
      if i >= String.length text then failwith "pattern not found"
      else if
        i + String.length pat <= String.length text
        && String.sub text i (String.length pat) = pat
      then if seen = occurrence then i else find (i + 1) (seen + 1)
      else find (i + 1) seen
    in
    find 0 0
  in
  let links =
    [
      (* value link: ada herself, bound at composition time *)
      {
        Storage_form.link = Hyperlink.L_object ada_oid;
        label = "ada";
        pos = pos_of " + .toString()" 0 + 3;
      };
      (* location link: the static field, bound at run time *)
      {
        Storage_form.link = Hyperlink.L_static_field { cls = "Directory"; name = "assistant" };
        label = "Directory.assistant";
        pos = pos_of " + .toString()" 1 + 3;
      };
    ]
  in
  let hp = Storage_form.create vm ~class_name:"CallSheet" ~text ~links in
  Store.Session.set_root vm.Rt.session "call-sheet" (Pvalue.Ref hp);

  print_endline "== textual form ==";
  print_string (Dynamic_compiler.generate_textual_form vm hp);

  print_endline "\n== first run (assistant = grace) ==";
  ignore (Dynamic_compiler.go vm hp ~argv:[]);
  print_string (Rt.take_output vm);

  (* Rebind the location; the value link is unaffected, the location link
     follows: delayed binding preserved through a hyper-program. *)
  Rt.set_static vm "Directory" "assistant" alan;
  print_endline "== second run (assistant rebound to alan) ==";
  ignore (Vm.run_main vm ~cls:"CallSheet" []);
  print_string (Rt.take_output vm);

  (* -- browsing: sharing is visible (ada is manager of two contacts) ------- *)
  print_endline "== browser: ada is shared (manager of two contacts + vector entry) ==";
  let b = Hyperui.Session.browser session in
  ignore (Browser.Ocb.open_object b ada_oid);
  print_string (Browser.Render.browser b);
  let inbound = Browser.Graph.inbound_count store ada_oid in
  Printf.printf "inbound references to ada: %d\n" inbound;
  (match Browser.Graph.path_to store ada_oid with
  | Some path ->
    Format.printf "path from roots: %a@."
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
         (Browser.Graph.pp_step store))
      path
  | None -> print_endline "unreachable?!");
  print_endline "address_book: OK"
