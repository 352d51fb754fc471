(* OCB — the object/class browser (Section 5.3).

   The browser is controlled programmatically through this class
   interface and call-back functions, exactly as its design aims state;
   the interactive front end (bin/hpjava) and the hyper-programming UI
   (lib/hyperui) are thin layers over it.  Each panel displays one entity
   (object, class, method, field, value); navigation opens new panels.
   Every row distinguishes the VALUE it contains from the LOCATION that
   holds it, supporting the paper's value/location link choice. *)

open Pstore
open Minijava

type entity =
  | E_object of Oid.t
  | E_class of string
  | E_method of { cls : string; name : string; desc : string; static : bool }
  | E_constructor of { cls : string; desc : string }
  | E_value of Pvalue.t
  | E_roots (* the persistent root directory *)

type location =
  | Loc_static_field of string * string
  | Loc_instance_field of Oid.t * string * string (* holder, declaring class, field *)
  | Loc_array_element of Oid.t * int

type row = {
  row_label : string;
  row_display : string;
  row_value : entity option; (* right half: the value contained *)
  row_location : location option; (* left half: the location itself *)
}

type panel = {
  panel_id : int;
  entity : entity;
  mutable selected : int option;
}

type t = {
  vm : Rt.t;
  formats : Display_format.registry;
  mutable panels : panel list; (* front-most first *)
  mutable next_id : int;
  mutable on_open : (entity -> unit) list;
  mutable max_array_rows : int;
}

let create vm =
  {
    vm;
    formats = Display_format.create_registry ();
    panels = [];
    next_id = 1;
    on_open = [];
    max_array_rows = 64;
  }

let vm b = b.vm
let panels b = b.panels
let formats b = b.formats

let front b =
  match b.panels with
  | p :: _ -> Some p
  | [] -> None

let on_open b f = b.on_open <- f :: b.on_open

let open_entity b entity =
  let panel = { panel_id = b.next_id; entity; selected = None } in
  b.next_id <- b.next_id + 1;
  b.panels <- panel :: b.panels;
  List.iter (fun f -> f entity) b.on_open;
  panel

let close_panel b id = b.panels <- List.filter (fun p -> p.panel_id <> id) b.panels

let bring_to_front b id =
  match List.partition (fun p -> p.panel_id = id) b.panels with
  | [ p ], rest -> b.panels <- p :: rest
  | _ -> ()

(* -- entity naming ------------------------------------------------------------ *)

(* Unreadable objects display distinctly instead of crashing the panel:
   the scrubber may quarantine any object while the browser is open. *)
let damaged_title oid = function
  | Failure.Quarantined _ -> Printf.sprintf "<quarantined @%d>" (Oid.to_int oid)
  | _ -> Printf.sprintf "<dangling @%d>" (Oid.to_int oid)

let entity_title b = function
  | E_object oid -> begin
    match Store.Session.try_get b.vm.Rt.session oid with
    | Ok entry -> Printf.sprintf "%s@%d" (Heap.entry_class entry) (Oid.to_int oid)
    | Error e -> damaged_title oid e
  end
  | E_class name -> "class " ^ name
  | E_method { cls; name; desc; _ } -> Printf.sprintf "method %s.%s%s" cls name desc
  | E_constructor { cls; desc } -> Printf.sprintf "constructor %s%s" cls desc
  | E_value v -> "value " ^ Pvalue.to_string v
  | E_roots -> "persistent roots"

(* A one-line display of a value, truncated and with sharing marks. *)
let display_value b ?(format = Display_format.default) v =
  match v with
  | Pvalue.Ref oid -> begin
    match Store.Session.try_get b.vm.Rt.session oid with
    | Error e -> damaged_title oid e
    | Ok (Heap.Str s) ->
      let s = if String.length s > format.Display_format.max_string then String.sub s 0 format.Display_format.max_string ^ "…" else s in
      Printf.sprintf "%S" s
    | Ok (Heap.Record r) -> begin
      let fmt = Display_format.lookup b.vm b.formats r.Heap.class_name in
      match fmt.Display_format.summary with
      | Some f -> f b.vm oid
      | None -> Printf.sprintf "%s@%d" r.Heap.class_name (Oid.to_int oid)
    end
    | Ok (Heap.Array a) ->
      Printf.sprintf "%s[%d]@%d"
        (Jtype.to_string (Jtype.of_descriptor a.Heap.elem_type))
        (Array.length a.Heap.elems) (Oid.to_int oid)
    | Ok (Heap.Weak _) -> Printf.sprintf "weak@%d" (Oid.to_int oid)
  end
  | v -> Pvalue.to_string v

let value_entity v =
  match v with
  | Pvalue.Ref oid -> Some (E_object oid)
  | Pvalue.Null -> None
  | prim -> Some (E_value prim)

(* -- rows ----------------------------------------------------------------------- *)

let object_rows b oid =
  match Store.Session.try_get b.vm.Rt.session oid with
  | Error e ->
    (* A panel over a quarantined or dangling object degrades to a
       diagnosis instead of raising. *)
    let reason_rows =
      match Store.quarantine_reason (Store.Session.store b.vm.Rt.session) oid with
      | Some reason ->
        [ { row_label = "reason"; row_display = reason; row_value = None; row_location = None } ]
      | None -> []
    in
    { row_label = "status";
      row_display = Failure.describe e;
      row_value = None;
      row_location = None;
    }
    :: reason_rows
  | Ok (Heap.Str s) ->
    [
      { row_label = "class"; row_display = Jtype.string_class; row_value = Some (E_class Jtype.string_class); row_location = None };
      { row_label = "length"; row_display = string_of_int (String.length s); row_value = Some (E_value (Pvalue.Int (Int32.of_int (String.length s)))); row_location = None };
      { row_label = "value"; row_display = Printf.sprintf "%S" s; row_value = None; row_location = None };
    ]
  | Ok (Heap.Weak cell) ->
    [
      {
        row_label = "target";
        row_display = display_value b cell.Heap.target;
        row_value = value_entity cell.Heap.target;
        row_location = None;
      };
    ]
  | Ok (Heap.Array a) ->
    let len = Array.length a.Heap.elems in
    let shown = min len b.max_array_rows in
    let elem_rows =
      List.init shown (fun i ->
          let v = a.Heap.elems.(i) in
          {
            row_label = Printf.sprintf "[%d]" i;
            row_display = display_value b v;
            row_value = value_entity v;
            row_location = Some (Loc_array_element (oid, i));
          })
    in
    let header =
      {
        row_label = "length";
        row_display = string_of_int len;
        row_value = Some (E_value (Pvalue.Int (Int32.of_int len)));
        row_location = None;
      }
    in
    let trailer =
      if shown < len then
        [ { row_label = "…"; row_display = Printf.sprintf "(%d more)" (len - shown); row_value = None; row_location = None } ]
      else []
    in
    (header :: elem_rows) @ trailer
  | Ok (Heap.Record r) -> begin
    let cls = r.Heap.class_name in
    let class_row =
      { row_label = "class"; row_display = cls; row_value = Some (E_class cls); row_location = None }
    in
    match Rt.find_class b.vm cls with
    | None ->
      (* A record whose class is not loaded in this VM: raw field dump. *)
      class_row
      :: List.mapi
           (fun i v ->
             {
               row_label = Printf.sprintf "field%d" i;
               row_display = display_value b v;
               row_value = value_entity v;
               row_location = None;
             })
           (Array.to_list r.Heap.fields)
    | Some rc ->
      let format = Display_format.lookup b.vm b.formats cls in
      let super_len =
        match rc.Rt.rc_super with
        | Some super -> Array.length (Rt.get_class b.vm super).Rt.rc_layout
        | None -> 0
      in
      let field_rows =
        Array.to_list rc.Rt.rc_layout
        |> List.mapi (fun slot rf -> (slot, rf))
        |> List.filter (fun (slot, rf) ->
               Display_format.visible_field format ~inherited:(slot < super_len) rf)
        |> List.map (fun (slot, rf) ->
               let v = Store.Session.field b.vm.Rt.session oid slot in
               {
                 row_label = rf.Rt.rf_name;
                 row_display = display_value b ~format v;
                 row_value = value_entity v;
                 row_location = Some (Loc_instance_field (oid, cls, rf.Rt.rf_name));
               })
      in
      class_row :: field_rows
  end

let class_rows b cls =
  match Rt.find_class b.vm cls with
  | None -> [ { row_label = "error"; row_display = "class not loaded"; row_value = None; row_location = None } ]
  | Some rc ->
    let format = Display_format.lookup b.vm b.formats cls in
    let super_row =
      match rc.Rt.rc_super with
      | Some super ->
        [ { row_label = "extends"; row_display = super; row_value = Some (E_class super); row_location = None } ]
      | None -> []
    in
    let interface_rows =
      List.map
        (fun i -> { row_label = "implements"; row_display = i; row_value = Some (E_class i); row_location = None })
        rc.Rt.rc_interfaces
    in
    let source_rows =
      (* "the hyper-program source text is always available for any
         persistent class created within the system" *)
      match rc.Rt.rc_classfile.Classfile.cf_source with
      | Some source ->
        let lines = List.length (String.split_on_char '\n' source) in
        [
          {
            row_label = "source";
            row_display = Printf.sprintf "available (%d lines)" lines;
            row_value = None;
            row_location = None;
          };
        ]
      | None ->
        [ { row_label = "source"; row_display = "not recorded"; row_value = None; row_location = None } ]
    in
    let static_rows =
      Hashtbl.fold (fun name slot acc -> (name, slot) :: acc) rc.Rt.rc_static_index []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (name, slot) ->
             let v = rc.Rt.rc_statics.(slot) in
             {
               row_label = "static " ^ name;
               row_display = display_value b v;
               row_value = value_entity v;
               row_location = Some (Loc_static_field (cls, name));
             })
    in
    let method_rows =
      let own = Hashtbl.fold (fun _ ms acc -> ms @ acc) rc.Rt.rc_methods [] in
      let inherited =
        if format.Display_format.hide_superclass_methods then []
        else begin
          match rc.Rt.rc_super with
          | Some super ->
            Reflect.methods_of_class b.vm super ~include_inherited:true
          | None -> []
        end
      in
      (* An override shadows the inherited method: dedupe by name+desc,
         keeping the subclass's declaration. *)
      let seen = Hashtbl.create 16 in
      own @ inherited
      |> List.filter (fun m ->
             let key = m.Rt.rm_name ^ m.Rt.rm_desc in
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.replace seen key ();
               true
             end)
      |> List.filter (fun m -> m.Rt.rm_name <> "<clinit>")
      |> List.sort (fun a b ->
             match String.compare a.Rt.rm_name b.Rt.rm_name with
             | 0 -> String.compare a.Rt.rm_desc b.Rt.rm_desc
             | c -> c)
      |> List.map (fun m ->
             if String.equal m.Rt.rm_name "<init>" then
               {
                 row_label = "constructor";
                 row_display = cls ^ m.Rt.rm_desc;
                 row_value = Some (E_constructor { cls; desc = m.Rt.rm_desc });
                 row_location = None;
               }
             else
               {
                 row_label = (if m.Rt.rm_static then "static method" else "method");
                 row_display = m.Rt.rm_name ^ m.Rt.rm_desc;
                 row_value =
                   Some
                     (E_method
                        { cls = m.Rt.rm_class; name = m.Rt.rm_name; desc = m.Rt.rm_desc; static = m.Rt.rm_static });
                 row_location = None;
               })
    in
    super_row @ interface_rows @ source_rows @ static_rows @ method_rows

let method_rows _b (cls, name, desc, static) =
  let msig = Jtype.msig_of_descriptor desc in
  [
    { row_label = "declaring class"; row_display = cls; row_value = Some (E_class cls); row_location = None };
    { row_label = "name"; row_display = name; row_value = None; row_location = None };
    { row_label = "static"; row_display = string_of_bool static; row_value = None; row_location = None };
    {
      row_label = "signature";
      row_display = Format.asprintf "%a" Jtype.pp_msig msig;
      row_value = None;
      row_location = None;
    };
  ]

let roots_rows b =
  let session = b.vm.Rt.session in
  List.map
    (fun name ->
      let v = Option.value (Store.Session.root session name) ~default:Pvalue.Null in
      {
        row_label = name;
        row_display = display_value b v;
        row_value = value_entity v;
        row_location = None;
      })
    (Store.Session.root_names session)

let rows b panel =
  match panel.entity with
  | E_object oid -> object_rows b oid
  | E_class cls -> class_rows b cls
  | E_method { cls; name; desc; static } -> method_rows b (cls, name, desc, static)
  | E_constructor { cls; desc } ->
    [
      { row_label = "declaring class"; row_display = cls; row_value = Some (E_class cls); row_location = None };
      { row_label = "signature"; row_display = desc; row_value = None; row_location = None };
    ]
  | E_value v ->
    [ { row_label = "value"; row_display = Pvalue.to_string v; row_value = None; row_location = None } ]
  | E_roots -> roots_rows b

(* -- navigation ------------------------------------------------------------------ *)

(* Open the value of the n-th row of a panel in a new panel. *)
let open_row b panel n =
  let all = rows b panel in
  match List.nth_opt all n with
  | Some { row_value = Some entity; _ } ->
    panel.selected <- Some n;
    Some (open_entity b entity)
  | Some _ | None -> None

(* Open the class panel for an object panel (Display Class). *)
let open_class_of b panel =
  match panel.entity with
  | E_object oid -> begin
    match Store.Session.try_get b.vm.Rt.session oid with
    | Ok entry -> Some (open_entity b (E_class (Heap.entry_class entry)))
    | Error _ -> None
  end
  | E_class _ | E_method _ | E_constructor _ | E_value _ | E_roots -> None

(* Invoke a no-argument method shown in a method panel on a receiver
   (the "in some cases method invocation" facility). *)
let invoke b ~cls ~name ~desc ~receiver =
  let rm = Rt.resolve_method b.vm cls name desc in
  if rm.Rt.rm_static then Vm.call_method b.vm rm []
  else
    match receiver with
    | Some recv -> Vm.call_virtual b.vm ~recv ~name ~desc []
    | None -> Rt.jerror "java.lang.IllegalArgumentException" "instance method needs a receiver"

(* Open the persistent-root directory. *)
let open_roots b = open_entity b E_roots

let open_object b oid = open_entity b (E_object oid)
let open_class b cls = open_entity b (E_class cls)
