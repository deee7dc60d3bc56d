(* Order statistics over a run's repeated samples. *)

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* The [p] quantile of [xs], interpolating linearly between the order
   statistics around rank p * (n - 1). *)
let quantile xs p =
  match xs with
  | [] -> invalid_arg "Stats.quantile: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let r = Float.min 1. (Float.max 0. p) *. float_of_int (Array.length a - 1) in
      let i = int_of_float r in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((r -. float_of_int i) *. (a.(j) -. a.(i)))

(* Mean of the slower half of [xs]: the middle sample of an odd count
   belongs to it. *)
let slow_half_mean = function
  | [] -> invalid_arg "Stats.slow_half_mean: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let slow = Array.sub a (n / 2) (n - (n / 2)) in
      Array.fold_left ( +. ) 0. slow /. float_of_int (Array.length slow)

let maximum = function
  | [] -> invalid_arg "Stats.maximum: no samples"
  | x :: xs -> List.fold_left Float.max x xs

(* Host wall clock in seconds. *)
let now = Unix.gettimeofday

(* [time f] runs [f] and returns its result with the seconds it took. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
