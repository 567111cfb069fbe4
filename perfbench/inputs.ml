(* Inputs of every workload, generated from the workload seed before any
   timing starts. The program under test only ever sees the flat files
   and query texts built here. *)

module W = Datahounds.Warehouse
module G = Workload.Genbio
module Q = Workload.Query_mix

let config ~seed ~per_source ~citations =
  { G.seed; n_enzymes = per_source; n_embl = per_source; n_sprot = per_source;
    n_citations = citations; cdc6_rate = 0.03; ketone_rate = 0.08;
    ec_link_rate = 0.5; seq_length = 120 }

(* in first-appearance order *)
let distinct l =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    l

(* The figure queries' costs follow small binomial counts of the
   generator: Fig. 8 pairs every EMBL entry planted with "cdc6" with
   every planted Swiss-Prot entry (at 150 entries per source its output
   ranged 0-56 rows over ten seeds and its execution time 0.46-2.39 ms),
   and Fig. 11 joins every EMBL entry carrying an EC-number link.
   Workloads that send them hold those counts fixed: their universe is
   the first one drawn from the seed whose planted EMBL and Swiss-Prot
   counts equal their rounded expectation and whose EC-linked EMBL count
   lies within 2 of its expectation. *)
let counts (u : G.universe) =
  let count p l = List.length (List.filter p l) in
  let cdc6 = List.mem "cdc6" in
  ( count (fun (e : Datahounds.Embl.t) -> cdc6 e.keywords) u.embl_entries,
    count (fun (e : Datahounds.Swissprot.t) -> cdc6 e.keywords) u.sprot_entries,
    count (fun (e : Datahounds.Embl.t) -> e.db_refs <> []) u.embl_entries )

let generate_fixed_counts (cfg : G.config) =
  let expected rate n = rate *. float_of_int n in
  let rounded rate n = int_of_float (Float.round (expected rate n)) in
  let rec draw k =
    let u = G.generate { cfg with seed = (cfg.seed * 101) + k } in
    let embl, sprot, linked = counts u in
    if embl = rounded cfg.cdc6_rate cfg.n_embl
       && sprot = rounded cfg.cdc6_rate cfg.n_sprot
       && Float.abs (float_of_int linked -. expected cfg.ec_link_rate cfg.n_embl) <= 2.
    then u
    else draw (k + 1)
  in
  draw 0

(* The flat files of a universe, paired with the source that harvests
   them, in load order (as [Genbio.load_universe]). *)
let loads (u : G.universe) =
  [ (W.enzyme_source, G.enzyme_flat u);
    (W.embl_source ~division:"inv", G.embl_flat u);
    (W.swissprot_source, G.swissprot_flat u) ]
  @ (if u.citations = [] then [] else [ (W.medline_source, G.medline_flat u) ])

let entries (u : G.universe) =
  List.length u.enzymes + List.length u.embl_entries
  + List.length u.sprot_entries + List.length u.citations

let flat_bytes loads =
  List.fold_left (fun acc (_, text) -> acc + String.length text) 0 loads

(* The verbatim query texts of the paper's Figs. 8, 9 and 11 (keyword,
   sub-tree and join GUI modes). *)
let figures =
  [ {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number|};
    {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description|};
    {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description|} ]

(* ---------------- adhoc_gui ---------------- *)

let adhoc_universe seed =
  G.generate (config ~seed ~per_source:300 ~citations:300)

(* GUI traffic: rounds of the six task classes, each round filling every
   query shape with freshly drawn constants (as the Fig. 7/10 modes do),
   so a text repeats only when its constants are drawn again. *)
let adhoc_requests ~seed ~universe ~count =
  let rec rounds acc n round =
    if n >= count then List.filteri (fun i _ -> i < count) (List.concat (List.rev acc))
    else
      let mix = Q.mixed ~seed:((seed * 7919) + round) ~universe ~per_class:4 in
      rounds (mix :: acc) (n + List.length mix) (round + 1)
  in
  Array.of_list (rounds [] 0 0)

(* [first_seen.(i)] when request [i]'s exact text was not sent before *)
let first_seen texts =
  let seen = Hashtbl.create 1024 in
  Array.map
    (fun text ->
      if Hashtbl.mem seen text then false
      else begin
        Hashtbl.add seen text ();
        true
      end)
    texts

(* ---------------- figures_ooc ---------------- *)

let figures_universe seed =
  generate_fixed_counts (config ~seed ~per_source:150 ~citations:0)

let figure_requests count =
  let figs = Array.of_list figures in
  Array.init count (fun i -> figs.(i mod Array.length figs))

(* ---------------- release_sync ---------------- *)

let base_per_source = 100
let new_embl_per_release = base_per_source / 10

type release = {
  enzymes : Datahounds.Enzyme.t list;  (* the whole ENZYME release *)
  new_embl : Datahounds.Embl.t list;   (* EMBL entries first seen here *)
}

type releases = {
  base : G.universe;
  steps : release list;
  gui : string list;  (* the GUI-mode part of every read batch, distinct *)
}

(* A release changes exactly a tenth of the ENZYME entries: the first
   [Genbio.mutate_enzymes] draw from the seed that changes that many, so
   the sync work per release does not follow a binomial count. *)
let mutate_exactly ~seed enzymes =
  let target = List.length enzymes / 10 in
  let rec draw k =
    let next = G.mutate_enzymes ~seed:((seed * 101) + k) ~fraction:0.1 enzymes in
    let changed =
      List.fold_left2
        (fun n (a : Datahounds.Enzyme.t) b -> if a = b then n else n + 1)
        0 enzymes next
    in
    if changed = target then next else draw (k + 1)
  in
  draw 0

(* Texts of each GUI-mode class in a read batch (at most: annotation
   filters and cross-reference joins have 5 and 3 distinct texts). A
   batch's latencies fall in clusters: point lookups, keyword browses
   and Fig. 9 (about 0.1 ms warm), annotation filters and selective
   range scans (0.2-0.3 ms), then Fig. 8, the joins and broad range
   scans (0.4-1.5 ms). With 8 texts of every class the median fell on
   the gap between the first two clusters, so [p50_ms] moved by half
   when a seed put one text more on either side of it. With these
   counts it falls inside the middle cluster, several texts from
   either edge. *)
let gui_per_class =
  [ (Q.Accession_lookup, 6); (Q.Keyword_browse, 6); (Q.Annotation_filter, 5);
    (Q.Range_scan, 12); (Q.Cross_reference_join, 3) ]

(* One universe holds the base load and every release's new EMBL
   entries: [Genbio.generate] draws EMBL entries after the other sources,
   so its first [base_per_source] EMBL entries are the base load's. *)
let releases ~seed ~count =
  let full =
    generate_fixed_counts
      { (config ~seed ~per_source:base_per_source ~citations:0) with
        n_embl = base_per_source + (count * new_embl_per_release) }
  in
  let slice lo n = List.filteri (fun i _ -> i >= lo && i < lo + n) in
  let base =
    { full with embl_entries = slice 0 base_per_source full.embl_entries }
  in
  let rec steps enzymes r =
    if r > count then []
    else
      let enzymes = mutate_exactly ~seed:((seed * 1000) + r) enzymes in
      let new_embl =
        slice
          (base_per_source + ((r - 1) * new_embl_per_release))
          new_embl_per_release full.embl_entries
      in
      { enzymes; new_embl } :: steps enzymes (r + 1)
  in
  let gui =
    List.concat_map
      (fun (cls, n) ->
        List.filteri (fun i _ -> i < n)
          (distinct (Q.generate ~seed ~universe:base ~count:32 cls)))
      gui_per_class
  in
  { base; steps = steps base.enzymes 1; gui }

let enzyme_release r = Datahounds.Enzyme.render r.enzymes
let embl_release r = Datahounds.Embl.render r.new_embl

(* The flat files a fresh harvest of the final state would load: the
   last ENZYME release, every EMBL entry so far, the base Swiss-Prot. *)
let final_universe rs =
  match List.rev rs.steps with
  | [] -> rs.base
  | last :: _ ->
    { rs.base with
      enzymes = last.enzymes;
      embl_entries =
        rs.base.embl_entries @ List.concat_map (fun r -> r.new_embl) rs.steps }
