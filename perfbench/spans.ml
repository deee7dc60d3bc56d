(* Outside-in spans for the traced run.

   The benchmark wraps each call it makes into a layer of the simulator
   in a span; nothing inside the simulator is instrumented.  A span keeps
   its name, host start and end, the span that was open around it, the
   run it belongs to, the GC work done under it and - when a kernel is in
   scope - the Kernel.perf counter deltas of the call.  Spans stay in
   memory until the run ends and are then written out in one go. *)

module Perf = Ppc.Perf
module Json = Mmu_tricks.Json

type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  run : int;
  name : string;
  start : float;  (** seconds, on the recorder's clock *)
  stop : float;
  gc : gc;
  perf : (string * int) list;  (** Perf.fields delta; [] with no kernel *)
}

type t = {
  run_id : int;
  clock : unit -> float;
  mutable next_id : int;
  mutable open_ : int list;  (** innermost first *)
  mutable closed : span list;  (** newest first *)
}

let create ?(clock = Stats.now) ~run_id () =
  { run_id; clock; next_id = 0; open_ = []; closed = [] }

(* Minor words from Gc.minor_words: under OCaml 5, Gc.counters and
   Gc.quick_stat only account them at a collection. *)
let gc_now () =
  let s = Gc.quick_stat () in
  let _, promoted_words, major_words = Gc.counters () in
  { minor_words = Gc.minor_words ();
    promoted_words;
    major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections }

let gc_delta ~after ~before =
  { minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections }

(* [with_span t ?perf name f] runs [f] inside a span.  [perf] is the
   counter record of the kernel the call drives, if there is one.  The
   span is recorded even when [f] raises. *)
let with_span t ?perf name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let perf0 = Option.map Perf.snapshot perf in
  let gc0 = gc_now () in
  let start = t.clock () in
  let finish () =
    let stop = t.clock () in
    let gc = gc_delta ~after:(gc_now ()) ~before:gc0 in
    let perf =
      match (perf, perf0) with
      | Some p, Some before ->
          Perf.fields (Perf.diff ~after:(Perf.snapshot p) ~before)
      | _ -> []
    in
    t.open_ <- List.tl t.open_;
    t.closed <- { id; parent; run = t.run_id; name; start; stop; gc; perf }
                :: t.closed
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.closed
let duration s = s.stop -. s.start
let named t name = List.filter (fun s -> s.name = name) (spans t)
let children t s = List.filter (fun c -> c.parent = s.id) (spans t)

(* The length of [lo, hi] covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* A span's duration minus the part of it its children cover. *)
let self_time ~start ~stop children =
  (stop -. start) -. covered ~lo:start ~hi:stop children

let self t s =
  self_time ~start:s.start ~stop:s.stop
    (List.map (fun c -> (c.start, c.stop)) (children t s))

let perf_field s name =
  match List.assoc_opt name s.perf with Some v -> v | None -> 0

(* Per-name totals, in first-seen order: (name, count, total s, self s). *)
let summary t =
  let names =
    List.fold_left
      (fun acc s -> if List.mem s.name acc then acc else s.name :: acc)
      [] (spans t)
    |> List.rev
  in
  List.map
    (fun name ->
      let ss = named t name in
      ( name,
        List.length ss,
        Stats.sum (List.map duration ss),
        Stats.sum (List.map (self t) ss) ))
    names

let summary_json t =
  Json.List
    (List.map
       (fun (name, n, total, self) ->
         Json.Obj
           [ ("name", Json.String name);
             ("count", Json.Int n);
             ("total_s", Json.Float total);
             ("self_s", Json.Float self) ])
       (summary t))

(* Chrome/Perfetto trace JSON: one complete slice per span, timestamps
   in microseconds from the first span. *)
let to_chrome t =
  let all = spans t in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) Float.infinity all in
  let us x = Json.Float (Float.round ((x -. t0) *. 1e7) /. 10.) in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("pid", Json.Int s.run);
        ("tid", Json.Int 1);
        ("ts", us s.start);
        ("dur", Json.Float (Float.round ((s.stop -. s.start) *. 1e7) /. 10.));
        ( "args",
          Json.Obj
            ([ ("id", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("self_us", Json.Float (self t s *. 1e6));
               ("minor_words", Json.Float s.gc.minor_words);
               ("promoted_words", Json.Float s.gc.promoted_words);
               ("major_words", Json.Float s.gc.major_words) ]
            @ List.filter_map
                (fun (n, v) ->
                  if v = 0 then None else Some ("perf." ^ n, Json.Int v))
                s.perf) ) ]
  in
  Json.Obj [ ("traceEvents", Json.List (List.map event all)) ]
