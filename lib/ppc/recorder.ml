(* The flight recorder: bounded-memory streaming telemetry.

   Where Trace keeps an event ring and Profile keeps running
   attributions, this layer snapshots the *whole* observability state —
   the Perf counters plus a set of named integer gauge vectors (htab
   occupancy and chain histogram, TLB census, per-CPU miss slices, run
   queue depths, span percentiles-so-far) — on a fixed simulated-cycle
   cadence, §5.2's "watch the table while it runs" loop as
   infrastructure.

   It is the simulator's one cycle-cadence sampler: Perf timelines and
   htab occupancy series are read off its samples.  [next_sample] is
   [max_int] unless armed, so the disabled cost in [Memsys.charge] is a
   single integer compare.  Recording is observation only — no cycles
   charged, no RNG draws, no cache traffic — so an armed run's counters
   are byte-identical to a bare run at the same seed.

   Memory is bounded: retained samples live in a flat array capped at
   [cap]; on overflow the recorder *decimates* — keeps every other
   retained sample and from then on retains only every [stride]-th
   sample taken — so an arbitrarily long run holds at most [cap]
   samples at a deterministic, self-coarsening resolution (the classic
   flight-recorder trick).  Sampling itself never coarsens: consumers
   that want the full stream at the original cadence hook
   [set_on_sample] and write each sample out as it fires. *)

type sample = {
  s_cycle : int;
  s_perf : Perf.t;  (* a [Perf.snapshot]: immutable copy *)
  s_gauges : (string * int array) list;  (* source order; arrays owned *)
}

type t = {
  perf : Perf.t;  (* cycle source; never written *)
  mutable next_sample : int;  (* max_int = disabled *)
  mutable every : int;  (* sampling cadence, fixed while armed *)
  mutable stride : int;  (* retain every [stride]-th sample (doubles) *)
  mutable skip : int;  (* samples to take before the next retained one *)
  mutable cap : int;  (* retained-sample bound *)
  mutable label : string;
  run_id : int;
  mutable sources : (string * (unit -> int array)) list;  (* install order *)
  mutable samples : sample array;
  mutable len : int;
  mutable total : int;  (* samples ever taken, pre-decimation *)
  mutable on_sample : (t -> sample -> unit) option;
}

let default_every = 1_000_000
let default_cap = 4096

let dummy_sample = { s_cycle = 0; s_perf = Perf.create (); s_gauges = [] }

let run_counter = ref 0

let create ~perf =
  incr run_counter;
  { perf;
    next_sample = max_int;
    every = default_every;
    stride = 1;
    skip = 0;
    cap = default_cap;
    label = "";
    run_id = !run_counter;
    sources = [];
    samples = [||];
    len = 0;
    total = 0;
    on_sample = None }

(* --- lifecycle --------------------------------------------------------- *)

let enable ?(every = default_every) ?(cap = default_cap) t =
  if every < 1 then invalid_arg "Recorder.enable: every must be >= 1";
  if cap < 2 then invalid_arg "Recorder.enable: cap must be >= 2";
  t.every <- every;
  t.stride <- 1;
  t.skip <- 0;
  t.cap <- cap;
  t.len <- 0;
  t.total <- 0;
  if Array.length t.samples < cap then
    t.samples <- Array.make cap dummy_sample;
  t.next_sample <- t.perf.Perf.cycles + every

let disable t = t.next_sample <- max_int
let enabled t = t.next_sample <> max_int

let set_label t label = t.label <- label
let label t = t.label
let run_id t = t.run_id
let every t = t.every * t.stride
let cap t = t.cap

let set_on_sample t f = t.on_sample <- Some f

(* --- gauge sources ----------------------------------------------------- *)

(* Installed by the subsystems that own the state (Memsys, Mmu, Sched)
   at creation time; only ever called inside [take_sample], so an
   expensive source costs nothing until the recorder is armed.
   Re-installing a name replaces the source in place (a workload that
   builds a second scheduler on the same kernel re-points the gauge at
   the live one) without disturbing the gauge order. *)
let add_source t ~name f =
  if List.mem_assoc name t.sources then
    t.sources <-
      List.map (fun (n, g) -> if n = name then (n, f) else (n, g)) t.sources
  else t.sources <- t.sources @ [ (name, f) ]

let source_names t = List.map fst t.sources

(* --- sampling ---------------------------------------------------------- *)

(* Halve the retained stream: keep samples 0, 2, 4, ... and double the
   retention stride.  Deterministic, so two runs of the same seed
   decimate at the same points. *)
let decimate t =
  let kept = (t.len + 1) / 2 in
  for i = 0 to kept - 1 do
    t.samples.(i) <- t.samples.(2 * i)
  done;
  for i = kept to t.len - 1 do
    t.samples.(i) <- dummy_sample
  done;
  t.len <- kept;
  t.stride <- t.stride * 2

let retain t s =
  if t.len >= t.cap then decimate t;
  t.samples.(t.len) <- s;
  t.len <- t.len + 1;
  t.skip <- t.stride - 1

(* Sampling stays at the base cadence whatever the decimation level;
   only retention thins.  A sample that is neither retained nor streamed
   is not even built. *)
let take_sample t =
  t.total <- t.total + 1;
  let keep = t.skip = 0 in
  if not keep then t.skip <- t.skip - 1;
  if keep || Option.is_some t.on_sample then begin
    let s =
      { s_cycle = t.perf.Perf.cycles;
        s_perf = Perf.snapshot t.perf;
        s_gauges = List.map (fun (name, f) -> (name, f ())) t.sources }
    in
    if keep then retain t s;
    match t.on_sample with Some f -> f t s | None -> ()
  end;
  t.next_sample <- t.perf.Perf.cycles + t.every

(* --- inspection -------------------------------------------------------- *)

let length t = t.len
let total t = t.total
let sample t i =
  if i < 0 || i >= t.len then invalid_arg "Recorder.sample";
  t.samples.(i)

let samples t = Array.to_list (Array.sub t.samples 0 t.len)
let iter t f =
  for i = 0 to t.len - 1 do
    f t.samples.(i)
  done
