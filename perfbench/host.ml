(* Host identity recorded with every result, and a fixed calibration
   loop.  The calibration time is a diagnostic for host drift between
   runs, not a normaliser: a short loop does not track the slowdowns a
   shared host imposes on the much larger workloads. *)

module Json = Mmu_tricks.Json

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let fingerprint ~jobs =
  Json.Obj
    [ ("cpu_model", Json.String (cpu_model ()));
      ("nproc", Json.Int jobs);
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("build_profile", Json.String Build_info.profile);
      ("word_size", Json.Int Sys.word_size) ]

(* ns per iteration of a fixed xorshift loop; median of five rounds. *)
let calib_ns () =
  let iters = 4_000_000 in
  let round () =
    let x = ref 88172645463325252 in
    let t0 = Stats.now () in
    for _ = 1 to iters do
      let v = !x in
      let v = v lxor (v lsl 13) in
      let v = v lxor (v lsr 7) in
      x := v lxor (v lsl 17)
    done;
    let dt = Stats.now () -. t0 in
    (* keep the loop live *)
    if !x = 0 then print_string "";
    dt *. 1e9 /. float_of_int iters
  in
  Stats.median (List.init 5 (fun _ -> round ()))
