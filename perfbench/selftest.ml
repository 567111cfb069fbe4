(* Self-tests of the benchmark: its request sequences, its metric names
   and its oracle. *)

open Perfbench

let checks = ref 0
let failures = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let share_first_seen texts =
  let first = Inputs.first_seen texts in
  float_of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 first)
  /. float_of_int (Array.length texts)

let () =
  (* the request sequence is a function of the seed alone, with a
     quarter to a third of a window's texts first-seen *)
  let count = Workloads.adhoc_window in
  let seq seed =
    Inputs.adhoc_requests ~seed ~universe:(Inputs.adhoc_universe seed) ~count
  in
  let a = seq 1 and b = seq 1 and c = seq 2 in
  check "adhoc requests are deterministic per seed" (a = b);
  check "adhoc requests differ across seeds" (a <> c);
  check "adhoc request count" (Array.length a = count);
  List.iter
    (fun (seed, s) ->
      let share = share_first_seen (Array.map snd s) in
      check
        (Printf.sprintf "seed %d: first-seen share %.3f within [0.25, 0.34]" seed share)
        (share >= 0.25 && share <= 0.34))
    [ (1, a); (2, c) ];
  check "every task class is requested"
    (List.length (List.sort_uniq compare (Array.to_list (Array.map fst a)))
     = List.length Workload.Query_mix.all_classes);
  let f = Inputs.figure_requests 9 in
  check "figure requests cycle the three figure texts"
    (share_first_seen f = 3. /. 9. && Array.length f = 9);
  let r1 = Inputs.releases ~seed:3 ~count:4 and r2 = Inputs.releases ~seed:3 ~count:4 in
  check "releases are deterministic per seed"
    (List.map Inputs.enzyme_release r1.steps = List.map Inputs.enzyme_release r2.steps
     && List.map Inputs.embl_release r1.steps = List.map Inputs.embl_release r2.steps);
  check "each release brings new EMBL entries"
    (List.for_all
       (fun (r : Inputs.release) ->
         List.length r.new_embl = Inputs.new_embl_per_release)
       r1.steps);
  check "each release changes exactly a tenth of the ENZYME entries"
    (snd
       (List.fold_left
          (fun (prev, ok) (r : Inputs.release) ->
            let changed =
              List.length (List.filter Fun.id (List.map2 ( <> ) prev r.enzymes))
            in
            (r.enzymes, ok && changed = List.length prev / 10))
          (r1.base.enzymes, true) r1.steps));
  let embl, sprot, linked = Inputs.counts (Inputs.figures_universe 7) in
  check "figures_ooc's universe has the expected planted counts"
    (embl = 5 && sprot = 5 && abs (linked - 75) <= 2);
  check "median of an even count averages the middle pair"
    (Stats.median [ 3.; 1. ] = 2. && Stats.median [ 3.; 1.; 2. ] = 2.);
  (* metric names *)
  let names =
    List.map (fun m -> m.Report.name) (Report.end_to_end @ Report.per_layer)
  in
  List.iter
    (fun n -> check (Printf.sprintf "metric name %S matches [A-Za-z0-9_.-]+" n)
        (Report.valid_name n))
    names;
  check "metric names are unique"
    (List.length (List.sort_uniq compare names) = List.length names);
  (* BENCHMARK.json lists exactly this catalogue *)
  let spec =
    let ic = open_in_bin "../BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.concat "" (String.split_on_char ' ' (String.concat "" (String.split_on_char '\n' s)))
  in
  let occurs sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length spec && (String.sub spec i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (m : Report.metric) ->
      check (Printf.sprintf "BENCHMARK.json lists %s" m.name)
        (occurs
           (Printf.sprintf "\"name\":\"%s\",\"unit\":\"%s\",\"better\":\"%s\"" m.name
              m.unit (match m.better with `Higher -> "higher" | `Lower -> "lower"))))
    (Report.end_to_end @ Report.per_layer);
  List.iter
    (fun w ->
      check (Printf.sprintf "BENCHMARK.json lists workload %s" w)
        (occurs (Printf.sprintf "\"name\":\"%s\",\"why\":" w)))
    Report.workloads;
  check "BENCHMARK.json lists nothing else"
    (List.length (List.filter (( = ) "name") (String.split_on_char '"' spec))
     = List.length names + List.length Report.workloads);
  (* the oracle accepts the program's answers and flags a corrupted one *)
  let u =
    Workload.Genbio.generate
      (Inputs.config ~seed:5 ~per_source:25 ~citations:20)
  in
  let loads = Inputs.loads u in
  let wh = Datahounds.Warehouse.create () in
  ignore (Workloads.harvest_all wh loads);
  let provider = Oracle.provider loads in
  let texts =
    Inputs.figures
    @ List.map snd (Workload.Query_mix.mixed ~seed:5 ~universe:u ~per_class:2)
  in
  List.iter
    (fun text ->
      let body =
        Xomatiq.Engine.result_to_table (Xomatiq.Engine.run_text wh text)
      in
      let short = String.sub text 0 (min 40 (String.length text)) in
      check ("oracle accepts the program's answer: " ^ String.escaped short)
        (Oracle.agrees provider text body);
      let lines = String.split_on_char '\n' body in
      let dropped =
        String.concat "\n" (List.filteri (fun i _ -> i <> List.length lines - 2) lines)
      in
      let flipped =
        String.mapi (fun i ch -> if i = String.length body / 2 then '#' else ch) body
      in
      check ("oracle flags a corrupted answer: " ^ String.escaped short)
        ((not (Oracle.agrees provider text dropped))
         && not (Oracle.agrees provider text flipped)))
    texts;
  Datahounds.Warehouse.close wh;
  Printf.printf "perfbench self-tests: %d of %d checks passed\n"
    (!checks - !failures) !checks;
  if !failures > 0 then exit 1
