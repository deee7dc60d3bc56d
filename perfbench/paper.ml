(* Model accuracy against the paper: the measured/paper cells of Tables
   1-3, the only reference results in the repo.

   Every cell of T1-T3 past the row label reads "measured/paper".  The
   cells the model was fitted to (the calibration anchors that
   docs/CALIBRATION.md lists, one per calibrated constant) say nothing
   about accuracy, so they are dropped; what remains is scored by
   |ln(measured / paper)|. *)

module Experiments = Mmu_tricks.Experiments
module Baseline = Mmu_tricks.Baseline

let tables = [ "T1"; "T2"; "T3" ]

(* (table, row label, column header) of each anchor: the 133 MHz 603's
   ctxsw (Tables 2-3), pipe bandwidth and reread; Table 3's null syscall,
   context switch and pipe latency for both Linux kernels, and the
   optimized kernel's pipe bandwidth. *)
let anchors =
  [ ("T2", "603 133MHz", "ctxsw us");
    ("T2", "603 133MHz", "pipe bw MB/s");
    ("T2", "603 133MHz", "reread MB/s");
    ("T3", "Linux/PPC", "null syscall us");
    ("T3", "Linux/PPC", "ctx switch us");
    ("T3", "Linux/PPC", "pipe lat us");
    ("T3", "Linux/PPC", "pipe bw MB/s");
    ("T3", "Unoptimized Linux/PPC", "null syscall us");
    ("T3", "Unoptimized Linux/PPC", "ctx switch us");
    ("T3", "Unoptimized Linux/PPC", "pipe lat us") ]

type cell = {
  table : string;
  row : string;
  column : string;
  measured : float;
  paper : float;
}

let is_anchor c = List.mem (c.table, c.row, c.column) anchors
let err c = Float.abs (Float.log (c.measured /. c.paper))

(* Every measured/paper cell of the given (id, table) pairs that belong
   to T1-T3.  A cell counts when it holds exactly two positive numbers. *)
let cells entries =
  List.concat_map
    (fun (id, (t : Experiments.table)) ->
      if not (List.mem id tables) then []
      else
        List.concat_map
          (fun row ->
            match row with
            | [] -> []
            | label :: values ->
                List.concat
                  (List.mapi
                     (fun i v ->
                       match Baseline.numbers_of_cell v with
                       | [ m; p ] when m > 0. && p > 0. ->
                           [ { table = id;
                               row = label;
                               column = List.nth t.header (i + 1);
                               measured = m;
                               paper = p } ]
                       | _ -> [])
                     values))
          t.rows)
    entries

type score = {
  median_err : float;  (** median |ln(measured/paper)| over scored cells *)
  max_err : float;
  scored : int;  (** cells scored *)
  anchors_dropped : int;
}

let score entries =
  let all = cells entries in
  let scored = List.filter (fun c -> not (is_anchor c)) all in
  let errs = List.map err scored in
  { median_err = (if errs = [] then Float.nan else Stats.median errs);
    max_err = (if errs = [] then Float.nan else Stats.maximum errs);
    scored = List.length scored;
    anchors_dropped = List.length all - List.length scored }

(* T1-T3 computed directly at [seed], for workloads whose own output
   holds no paper tables. *)
let run_tables ~seed =
  [ ("T1", Experiments.table1 ~seed ());
    ("T2", Experiments.table2 ~seed ());
    ("T3", Experiments.table3 ~seed ()) ]
