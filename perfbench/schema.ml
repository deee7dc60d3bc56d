(* What the benchmark computes by name: its workloads, the E17 server
   configurations and the registry's experiment ids.  The metric names
   and units themselves are declared once, in BENCHMARK.json, and read
   from there by [load]. *)

module Json = Mmu_tricks.Json

let workloads = [ "fork-exec"; "sweep" ]

(* Server configurations of the fork-exec workload, in E17's order, with
   the metric-name spelling of each label. *)
let server_configs =
  [ "baseline"; "optimized"; "precise_flush"; "no_idle_reclaim" ]

(* Registry ids the Runner layer reports one unit time for. *)
let experiment_ids =
  List.map
    (fun s -> s.Mmu_tricks.Experiments.id)
    Mmu_tricks.Experiments.registry

(* Suffix of the per-request Perf counts the traced run measures on its
   shared-mm-observed server; the unsuffixed ones are fork-exec's. *)
let shared_mm_suffix = ".shared_mm"

(* The limits BENCHMARK.json's consumers enforce on names and units. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
             true
         | _ -> false)
       s

(* ------------------------------------------------------- the catalogue *)

let benchmark_path = "BENCHMARK.json"

(* Metric name -> unit, for each kind of run. *)
type catalogue = {
  end_to_end : (string * string) list;
  per_layer : (string * string) list;
}

let ( let* ) = Result.bind

let field k j =
  match Json.member k j with
  | Some v -> Ok v
  | None -> Error ("missing key " ^ k)

let string_field k j =
  let* v = field k j in
  Option.to_result ~none:(k ^ " is not a string") (Json.to_string_opt v)

let list_field k j =
  let* v = field k j in
  Option.to_result ~none:(k ^ " is not a list") (Json.to_list_opt v)

let rec map_result f = function
  | [] -> Ok []
  | x :: l ->
      let* y = f x in
      let* ys = map_result f l in
      Ok (y :: ys)

let metrics k doc =
  let* l = list_field k doc in
  map_result
    (fun j ->
      let* n = string_field "name" j in
      let* u = string_field "unit" j in
      if not (valid_name n) then Error ("invalid metric name " ^ n)
      else if not (valid_unit u) then Error ("invalid unit of " ^ n)
      else Ok (n, u))
    l

(* Read and check the catalogue BENCHMARK.json declares: valid, unique
   names and units, and exactly the workloads this benchmark runs. *)
let load path =
  let* doc =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Json.of_string s
    | exception Sys_error e -> Error e
  in
  let* end_to_end = metrics "end_to_end" doc in
  let* per_layer = metrics "per_layer" doc in
  let* ws = list_field "workloads" doc in
  let* declared = map_result (string_field "name") ws in
  let names = List.map fst (end_to_end @ per_layer) in
  if List.length names <> List.length (List.sort_uniq compare names) then
    Error "a metric name is declared twice"
  else if
    List.sort compare declared <> List.sort compare workloads
  then Error ("declared workloads differ from " ^ String.concat ", " workloads)
  else if not (List.mem ("setup_s", "s") end_to_end) then
    Error "setup_s (s) is not declared end-to-end"
  else Ok { end_to_end; per_layer }
