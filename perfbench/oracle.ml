(* The correctness oracle: the reference evaluator ([Xomatiq.Eval]) run
   over documents transformed straight from the generated flat files —
   independent of shredding, storage, planning and the wire — rendered
   the way the server renders a result. *)

module W = Datahounds.Warehouse

(* One reused provider over the flat files [(source, text)]. *)
let provider loads : Xomatiq.Eval.provider =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ((src : W.source), text) ->
      let coll = src.source_collection in
      let docs =
        List.map (fun (name, (d : Gxml.Tree.document)) -> (name, d.root))
          (src.transform text)
      in
      let prev =
        match Hashtbl.find_opt tbl coll with
        | Some (v : Xomatiq.Eval.source_view) -> v.view_docs
        | None -> []
      in
      Hashtbl.replace tbl coll
        { Xomatiq.Eval.view_docs =
            List.sort (fun (a, _) (b, _) -> String.compare a b) (prev @ docs);
          view_sequence_elements = src.source_sequence_elements })
    loads;
  fun coll ->
    match Hashtbl.find_opt tbl coll with Some v -> v | None -> raise Not_found

(* The response body a correct server sends for [text]. *)
let expected provider text =
  let q = Xomatiq.Parser.parse text in
  let labels = List.mapi Xomatiq.Xq2sql.default_label q.Xomatiq.Ast.return_items in
  Xomatiq.Tagger.to_table ~labels (Xomatiq.Eval.eval provider q)

let agrees provider text body =
  match expected provider text with
  | want -> String.equal want body
  | exception _ -> false

(* A fixed seeded sample of at most [per_group] texts from each group
   (task class), in first-appearance order. *)
let sample ~seed ~per_group (groups : (string * string) list) =
  let rng = Workload.Rng.create seed in
  let by_group = Hashtbl.create 8 in
  List.iter
    (fun (g, text) ->
      Hashtbl.replace by_group g
        (text :: Option.value ~default:[] (Hashtbl.find_opt by_group g)))
    groups;
  List.concat_map
    (fun g ->
      let l = Inputs.distinct (List.rev (Hashtbl.find by_group g)) in
      if List.length l <= per_group then l
      else Workload.Rng.sample rng per_group l)
    (List.sort_uniq compare (List.map fst groups))
