(* The workloads and metric catalogue (BENCHMARK.json lists the same,
   which the self-tests check) and the result line. *)

let workloads = [ "figures_ooc"; "release_sync" ]

(* Runs by name, but BENCHMARK.json does not list it: on a shared 2-core
   host about one run in three read its latencies 30-50% above the
   others' (p95_ms 9.5-11.2 ms against 7.2-7.9 ms), in the same minutes
   in which the two listed workloads, run in turn with it, stayed within
   a fifth of their medians. Its middle-half spread reached 0.32 against
   the 0.25 bound. *)
let unlisted = [ "adhoc_gui" ]

type metric = { name : string; unit : string; better : [ `Higher | `Lower ] }

let m name unit better = { name; unit; better }

(* What a user of the system sees; printed by a run with [--trace 0]. *)
let end_to_end =
  [ m "setup_s" "s" `Lower;
    m "qps" "1/s" `Higher;
    m "p50_ms" "ms" `Lower;
    m "p95_ms" "ms" `Lower;
    m "cold_p50_ms" "ms" `Lower;
    m "docs_per_s" "docs/s" `Higher;
    m "rss_peak_mb" "MiB" `Lower;
    m "disk_bytes_per_input_byte" "ratio" `Lower ]

(* One layer each, named after its module; printed by [--trace 1]. *)
let per_layer =
  [ m "server.overhead_us" "us" `Lower;
    m "server.response_kb" "KiB" `Lower;
    m "server.dispatched_share" "ratio" `Lower;
    m "conc.parallel_granted_share" "ratio" `Higher;
    m "conc.ctx_switches_per_op" "1/op" `Lower;
    m "xomatiq.parse_us" "us" `Lower;
    m "xomatiq.xq2sql_us" "us" `Lower;
    m "xomatiq.path_cache_hit_ratio" "ratio" `Higher;
    m "xomatiq.plan_cache_hit_ratio" "ratio" `Higher;
    m "xomatiq.tag_us" "us" `Lower;
    m "rdb.sql_parse_us" "us" `Lower;
    m "rdb.plan_us" "us" `Lower;
    m "rdb.plan_alloc_kb" "KiB" `Lower;
    m "rdb.execute_us" "us" `Lower;
    m "rdb.execute_alloc_kb" "KiB" `Lower;
    m "rdb.rows_examined_per_result" "ratio" `Lower;
    m "rdb.index_probes_per_query" "1/query" `Lower;
    m "rdb.analyze_ms_per_release" "ms" `Lower;
    m "rdb.wal_bytes_per_doc" "B/doc" `Lower;
    m "storage.pool_hit_ratio" "ratio" `Higher;
    m "storage.pool_misses_per_query" "1/query" `Lower;
    m "storage.pool_evictions_per_query" "1/query" `Lower;
    m "storage.pool_writebacks_per_doc" "1/doc" `Lower;
    m "storage.page_bytes_per_input_byte" "ratio" `Lower;
    m "datahounds.transform_us_per_doc" "us" `Lower;
    m "gxml.validate_us_per_doc" "us" `Lower;
    m "datahounds.prepare_us_per_doc" "us" `Lower;
    m "datahounds.install_us_per_doc" "us" `Lower;
    m "datahounds.reconstruct_us_per_doc" "us" `Lower;
    m "datahounds.unchanged_share" "ratio" `Lower;
    m "trace.overhead_pct" "%" `Lower ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The last line of a run: every metric of [catalogue], in its order. *)
let line ~catalogue ~correct ~attempted ~failed values =
  let metric c =
    let v =
      match List.assoc_opt c.name values with
      | Some v when Float.is_finite v -> v
      | _ -> 0.
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" c.name (number v) c.unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric catalogue))

let json_string_map kvs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) kvs)
  ^ "}"
