type format = [ `Table | `Xml ]

type t = {
  id : int;
  connected_at : float;
  mutable contains : Xomatiq.Xq2sql.contains_strategy;
  mutable format : format;
  mutable queries : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable prep : (string * Xomatiq.Engine.prepared_text) option;
}

let create ~id =
  { id; connected_at = Rdb.Obs.now_s (); contains = `Keyword_index;
    format = `Table; queries = 0; bytes_in = 0; bytes_out = 0; prep = None }

let strategy_name = function
  | `Keyword_index -> "keyword"
  | `Like_scan -> "like"

let set_option t ~name ~value =
  match String.lowercase_ascii name with
  | "strategy" ->
    (match String.lowercase_ascii value with
     | "keyword" | "kw" | "keyword_index" ->
       t.contains <- `Keyword_index;
       Ok "strategy keyword"
     | "like" | "like_scan" ->
       t.contains <- `Like_scan;
       Ok "strategy like"
     | "" -> Ok ("strategy " ^ strategy_name t.contains)
     | other ->
       Error (Printf.sprintf "unknown strategy %S (keyword | like)" other))
  | "format" ->
    (match String.lowercase_ascii value with
     | "table" -> t.format <- `Table; Ok "format table"
     | "xml" -> t.format <- `Xml; Ok "format xml"
     | "" -> Ok ("format " ^ match t.format with `Table -> "table" | `Xml -> "xml")
     | other -> Error (Printf.sprintf "unknown format %S (table | xml)" other))
  | other -> Error (Printf.sprintf "unknown option %S (strategy | format)" other)

let info_json t =
  Printf.sprintf
    "{\"id\": %d, \"connected_s\": %.3f, \"strategy\": \"%s\", \"format\": \
     \"%s\", \"queries\": %d, \"bytes_in\": %d, \"bytes_out\": %d}"
    t.id
    (Rdb.Obs.now_s () -. t.connected_at)
    (strategy_name t.contains)
    (match t.format with `Table -> "table" | `Xml -> "xml")
    t.queries t.bytes_in t.bytes_out
