type action =
  | Added
  | Updated of Gxml.Diff.change list
  | Removed

type event = {
  event_collection : string;
  document : string;
  action : action;
}

type report = {
  added : int;
  updated : int;
  removed : int;
  unchanged : int;
}

type trigger = event -> unit

let pp_event ppf e =
  let action_str =
    match e.action with
    | Added -> "added"
    | Updated changes -> Printf.sprintf "updated (%d changes)" (List.length changes)
    | Removed -> "removed"
  in
  Fmt.pf ppf "%s/%s: %s" e.event_collection e.document action_str

let sync_documents ?(remove_missing = false) ?(triggers = []) wh ~collection docs =
  (* Duplicate names in the snapshot would make "added twice" possible:
     reject them. *)
  let names = List.map fst docs in
  let sorted = List.sort String.compare names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  match dup sorted with
  | Some n -> Error (Printf.sprintf "snapshot contains document %S twice" n)
  | None ->
    let existing = Warehouse.documents wh ~collection in
    let events = ref [] in
    let added = ref 0 and updated = ref 0 and removed = ref 0 and unchanged = ref 0 in
    let database = Warehouse.db wh in
    ignore (Rdb.Database.exec_exn database "BEGIN");
    let result =
      try
        List.iter
          (fun (name, (doc : Gxml.Tree.document)) ->
            match Warehouse.get_document wh ~collection ~name with
            | None ->
              (match Warehouse.load_document wh ~collection ~name doc with
               | Ok () ->
                 incr added;
                 events := { event_collection = collection; document = name;
                             action = Added } :: !events
               | Error m -> failwith m)
            | Some old_doc ->
              let changes = Gxml.Diff.diff old_doc.root doc.root in
              if changes = [] then incr unchanged
              else begin
                match Warehouse.load_document wh ~collection ~name doc with
                | Ok () ->
                  incr updated;
                  events := { event_collection = collection; document = name;
                              action = Updated changes } :: !events
                | Error m -> failwith m
              end)
          docs;
        if remove_missing then
          List.iter
            (fun name ->
              if not (List.mem name names) then begin
                ignore (Shred.delete_document database ~collection ~name);
                incr removed;
                events := { event_collection = collection; document = name;
                            action = Removed } :: !events
              end)
            existing;
        ignore (Rdb.Database.exec_exn database "COMMIT");
        Ok { added = !added; updated = !updated; removed = !removed;
             unchanged = !unchanged }
      with Failure m ->
        ignore (Rdb.Database.exec database "ROLLBACK");
        Error m
    in
    (match result with
     | Ok _ ->
       (* fire triggers after commit, in document order *)
       List.iter (fun ev -> List.iter (fun f -> f ev) triggers) (List.rev !events)
     | Error _ -> ());
    result

let sync_source ?remove_missing ?triggers wh (s : Warehouse.source) text =
  match Warehouse.transform_text s text with
  | Ok docs ->
    sync_documents ?remove_missing ?triggers wh ~collection:s.source_collection docs
  | Error _ as e -> e
