(* Exporters for Ppc.Profile: folded stacks (flamegraph-compatible),
   the attribution JSON embedded in results documents, and a text
   heatmap.  Pure functions of finished profilers — no charging paths
   live here.  A run can boot several kernels (E1 compares policies);
   miss accounts and hot pages merge across them, while the TLB census
   and htab occupancy map stay per-kernel (they describe one machine's
   structures), listed in boot order.  Occupancy over time is not the
   profiler's: it is the flight recorder's "htab" gauge series, which
   callers pass in. *)

open Ppc

let kind_idx = function
  | Profile.Itlb -> 0
  | Profile.Dtlb -> 1
  | Profile.Htab_miss -> 2

(* --- merging ---------------------------------------------------------- *)

(* (pid, seg, kind index) -> (count, cost), deterministic order *)
let merged_attribution profiles =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun pr ->
      List.iter
        (fun r ->
          let k = (r.Profile.r_pid, r.Profile.r_seg, kind_idx r.Profile.r_kind) in
          let count, cost =
            match Hashtbl.find_opt tbl k with
            | Some (n, c) -> (n, c)
            | None -> (0, 0)
          in
          Hashtbl.replace tbl k
            (count + r.Profile.r_count, cost + r.Profile.r_cost))
        (Profile.attribution pr))
    profiles;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let merged_hot_pages profiles kind ~top =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun pr ->
      List.iter
        (fun (page, count, cost) ->
          let n, c =
            match Hashtbl.find_opt tbl page with
            | Some (n, c) -> (n, c)
            | None -> (0, 0)
          in
          Hashtbl.replace tbl page (n + count, c + cost))
        (* max_int: merge everything, cut after merging *)
        (Profile.hot_pages pr kind ~top:max_int))
    profiles;
  let rows = Hashtbl.fold (fun p (n, c) acc -> (p, n, c) :: acc) tbl [] in
  let sorted =
    List.sort
      (fun (pa, _, ca) (pb, _, cb) ->
        match compare cb ca with 0 -> compare pa pb | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < top) sorted

(* --- folded stacks ---------------------------------------------------- *)

let kind_frame = function
  | 0 -> "itlb"
  | 1 -> "dtlb"
  | _ -> "htab"

(* One line per account, `pid_N;seg_0xS;kind cost` — feed to
   flamegraph.pl / inferno / speedscope as collapsed stacks, with
   attributed reload cycles as the sample weight. *)
let folded profiles =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ((pid, seg, kind), (_count, cost)) ->
      Buffer.add_string buf
        (Printf.sprintf "pid_%d;seg_0x%X;%s %d\n" pid seg (kind_frame kind)
           cost))
    (merged_attribution profiles);
  Buffer.contents buf

(* --- JSON ------------------------------------------------------------- *)

let hex n = Printf.sprintf "0x%08x" n

let pct ~part ~whole =
  if whole <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

(* The occupancy series in a recorder stream: one snapshot per sample
   that carries the "htab" gauge ([| valid; capacity; zombie |]). *)
let htab_series samples =
  List.filter_map
    (fun (s : Recorder.sample) ->
      match List.assoc_opt "htab" s.Recorder.s_gauges with
      | Some [| valid; capacity; zombie |] ->
          Some
            { Profile.h_cycle = s.Recorder.s_cycle;
              h_valid = valid;
              h_capacity = capacity;
              h_zombie = zombie;
              h_chains =
                Option.value ~default:[||]
                  (List.assoc_opt "htab_chains" s.Recorder.s_gauges) }
      | _ -> None)
    samples

let htab_json series pr =
  (* the end-of-run snapshot, plus the occupancy series when one was
     recorded; [None] when the machine has no htab *)
  match Profile.snapshot_htab pr with
  | None -> None
  | Some final ->
      let sample_row (s : Profile.htab_sample) =
        Json.List
          [ Json.Int s.Profile.h_cycle;
            Json.Int s.Profile.h_valid;
            Json.Int s.Profile.h_zombie ]
      in
      let with_series f = match series with None -> [] | Some ss -> f ss in
      Some
        (Json.Obj
           ([ ("capacity", Json.Int final.Profile.h_capacity);
              ("final_valid", Json.Int final.Profile.h_valid);
              ("final_occupancy_pct",
               Json.Float
                 (pct ~part:final.Profile.h_valid
                    ~whole:final.Profile.h_capacity)) ]
           @ with_series (fun ss ->
                 let peak =
                   List.fold_left
                     (fun m (s : Profile.htab_sample) -> max m s.Profile.h_valid)
                     final.Profile.h_valid ss
                 in
                 [ ("peak_occupancy_pct",
                    Json.Float (pct ~part:peak ~whole:final.Profile.h_capacity))
                 ])
           @ [ ("final_zombie_pct",
                Json.Float
                  (pct ~part:final.Profile.h_zombie
                     ~whole:(max 1 final.Profile.h_valid)));
               ("chain_histogram",
                Json.List
                  (Array.to_list
                     (Array.map (fun n -> Json.Int n) final.Profile.h_chains)))
             ]
           @ with_series (fun ss ->
                 [ ("sample_fields",
                    Json.List
                      [ Json.String "cycle"; Json.String "valid";
                        Json.String "zombie" ]);
                   ("samples", Json.List (List.map sample_row ss)) ])))

let census_json pr =
  let c = Profile.census pr in
  if c.Profile.n_samples = 0 then None
  else
    Some
      (Json.Obj
         [ ("samples", Json.Int c.Profile.n_samples);
           ("avg_kernel_share_pct", Json.Float c.Profile.avg_share_pct);
           ("kernel_high_water", Json.Int c.Profile.kernel_high_water);
           ("kernel_now", Json.Int c.Profile.kernel_now);
           ("occupied_now", Json.Int c.Profile.occupied_now);
           ("slot_capacity", Json.Int c.Profile.slot_capacity) ])

let to_json ?(top = 20) ?samples profiles =
  let series = Option.map htab_series samples in
  let attribution =
    Json.List
      (List.map
         (fun ((pid, seg, kind), (count, cost)) ->
           Json.Obj
             [ ("pid", Json.Int pid);
               ("segment", Json.Int seg);
               ("kind", Json.String (kind_frame kind));
               ("count", Json.Int count);
               ("cost", Json.Int cost) ])
         (merged_attribution profiles))
  in
  let hot kind =
    Json.List
      (List.map
         (fun (page, count, cost) ->
           Json.Obj
             [ ("page", Json.String (hex page));
               ("count", Json.Int count);
               ("cost", Json.Int cost) ])
         (merged_hot_pages profiles kind ~top))
  in
  Json.Obj
    [ ("attribution", attribution);
      ("hot_pages",
       Json.Obj
         [ ("itlb", hot Profile.Itlb);
           ("dtlb", hot Profile.Dtlb);
           ("htab", hot Profile.Htab_miss) ]);
      ("tlb_census", Json.List (List.filter_map census_json profiles));
      ("htab", Json.List (List.filter_map (htab_json series) profiles)) ]

(* --- text heatmap ----------------------------------------------------- *)

(* cost share of the hottest cell, rendered on a 9-step ramp *)
let ramp = [| '.'; ':'; '-'; '='; '+'; 'x'; '*'; '%'; '@' |]

let shade ~cost ~hottest =
  if cost <= 0 then ' '
  else begin
    let i = cost * Array.length ramp / max 1 hottest in
    ramp.(min (Array.length ramp - 1) i)
  end

let summary ?(top = 10) ?samples profiles =
  let series = Option.fold ~none:[] ~some:htab_series samples in
  let buf = Buffer.create 2048 in
  let rows = merged_attribution profiles in
  let total_cost =
    List.fold_left (fun a (_, (_, cost)) -> a + cost) 0 rows
  in
  let total_misses =
    List.fold_left (fun a (_, (count, _)) -> a + count) 0 rows
  in
  Buffer.add_string buf
    (Printf.sprintf
       "profile: %d misses attributed, %d reload cycles across %d account(s)\n"
       total_misses total_cost (List.length rows));
  (* heatmap: one row per PID, one column per segment-register index,
     cell shade = that (pid, seg)'s share of all attributed cost *)
  let pids = List.sort_uniq compare (List.map (fun ((p, _, _), _) -> p) rows) in
  if pids <> [] then begin
    let cell_cost pid seg =
      List.fold_left
        (fun a ((p, s, _), (_, cost)) ->
          if p = pid && s = seg then a + cost else a)
        0 rows
    in
    let hottest =
      List.fold_left
        (fun m pid ->
          List.fold_left (fun m seg -> max m (cell_cost pid seg)) m
            (List.init 16 Fun.id))
        1 pids
    in
    Buffer.add_string buf
      "attribution heatmap (reload cycles; rows = PIDs, cols = segments):\n";
    Buffer.add_string buf
      ("         " ^ String.concat " "
         (List.init 16 (fun s -> Printf.sprintf "%X" s)) ^ "\n");
    List.iter
      (fun pid ->
        Buffer.add_string buf (Printf.sprintf "  pid %-4d " pid);
        for seg = 0 to 15 do
          Buffer.add_char buf (shade ~cost:(cell_cost pid seg) ~hottest);
          if seg < 15 then Buffer.add_char buf ' '
        done;
        Buffer.add_char buf '\n')
      pids
  end;
  (* per-kind hot pages *)
  List.iter
    (fun kind ->
      match merged_hot_pages profiles kind ~top with
      | [] -> ()
      | pages ->
          Buffer.add_string buf
            (Printf.sprintf "top %s pages (misses, reload cycles):\n"
               (Profile.kind_name kind));
          List.iter
            (fun (page, count, cost) ->
              Buffer.add_string buf
                (Printf.sprintf "  %s %8d %10d\n" (hex page) count cost))
            pages)
    Profile.all_kinds;
  (* per-kernel TLB census *)
  List.iteri
    (fun i pr ->
      let c = Profile.census pr in
      if c.Profile.n_samples > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "tlb census [kernel %d]: avg kernel share %.1f%% of occupied \
              slots, high water %d of %d slots (%d censuses)\n"
             i c.Profile.avg_share_pct c.Profile.kernel_high_water
             c.Profile.slot_capacity c.Profile.n_samples))
    profiles;
  (* per-kernel htab occupancy trajectory *)
  List.iteri
    (fun i pr ->
      match Profile.snapshot_htab pr with
      | None -> ()
      | Some final ->
          let occ (s : Profile.htab_sample) =
            pct ~part:s.Profile.h_valid ~whole:s.Profile.h_capacity
          in
          let traj =
            match series with
            | [] -> Printf.sprintf "%.0f%%" (occ final)
            | samples ->
                (* at most a dozen points, evenly thinned *)
                let n = List.length samples in
                let step = max 1 ((n + 11) / 12) in
                let thinned =
                  List.filteri (fun i _ -> i mod step = 0) samples
                in
                String.concat " -> "
                  (List.map (fun s -> Printf.sprintf "%.0f%%" (occ s)) thinned
                  @ [ Printf.sprintf "%.0f%%" (occ final) ])
          in
          Buffer.add_string buf
            (Printf.sprintf
               "htab [kernel %d]: occupancy %s; %d/%d valid at end (%.1f%% \
                zombie); PTEG chains: %s\n"
               i traj final.Profile.h_valid final.Profile.h_capacity
               (pct ~part:final.Profile.h_zombie
                  ~whole:(max 1 final.Profile.h_valid))
               (String.concat " "
                  (Array.to_list
                     (Array.mapi
                        (fun len n -> Printf.sprintf "%d:%d" len n)
                        final.Profile.h_chains)))))
    profiles;
  Buffer.contents buf
