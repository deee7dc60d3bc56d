(* L1 cache model: hits, misses, bypass, LRU, write-back, locking. *)
open Ppc

let mk () = Cache.create ~bytes:(16 * 1024) ~ways:4

let acc ?(source = Cache.User) ?(inhibited = false) ?(write = false) c pa =
  Cache.access c ~source ~inhibited ~write pa

let is_miss = function Cache.Miss _ -> true | Cache.Hit | Cache.Bypass -> false

let test_miss_then_hit () =
  let c = mk () in
  Alcotest.(check bool) "first access misses" true (is_miss (acc c 0x1000));
  Alcotest.(check bool) "second access hits" true (acc c 0x1000 = Cache.Hit);
  Alcotest.(check bool) "same line hits" true (acc c 0x101F = Cache.Hit);
  Alcotest.(check bool) "next line misses" true (is_miss (acc c 0x1020))

let test_bypass () =
  let c = mk () in
  Alcotest.(check bool) "inhibited bypasses" true
    (acc ~inhibited:true c 0x2000 = Cache.Bypass);
  Alcotest.(check bool) "bypass does not allocate" true
    (is_miss (acc c 0x2000));
  Alcotest.(check int) "nothing allocated by bypass" 1 (Cache.occupancy c)

let test_lru_within_set () =
  (* 16K 4-way: 128 sets; lines mapping to set 0 are 128 lines apart *)
  let c = mk () in
  let line i = i * 128 * 32 in
  for i = 0 to 3 do
    ignore (acc c (line i) : Cache.result)
  done;
  (* touch line 0 so line 1 is LRU *)
  ignore (acc c (line 0) : Cache.result);
  ignore (acc c (line 4) : Cache.result);
  Alcotest.(check bool) "line0 kept" true (Cache.contains c (line 0));
  Alcotest.(check bool) "line1 evicted" false (Cache.contains c (line 1));
  Alcotest.(check bool) "line4 present" true (Cache.contains c (line 4))

let test_writeback_on_dirty_eviction () =
  let c = Cache.create ~bytes:(2 * 32) ~ways:2 in
  (* one set, two ways *)
  ignore (acc ~write:true c 0x0 : Cache.result);
  ignore (acc ~write:false c 0x20 : Cache.result);
  Alcotest.(check int) "two dirty? only first" 1 (Cache.dirty_lines c);
  (* evict the dirty LRU line: must report a write-back *)
  (match acc c 0x40 with
  | Cache.Miss { dirty_writeback } ->
      Alcotest.(check bool) "dirty victim written back" true dirty_writeback
  | Cache.Hit | Cache.Bypass -> Alcotest.fail "expected miss");
  (* evict the clean line: no write-back *)
  match acc c 0x60 with
  | Cache.Miss { dirty_writeback } ->
      Alcotest.(check bool) "clean victim silent" false dirty_writeback
  | Cache.Hit | Cache.Bypass -> Alcotest.fail "expected miss"

let test_write_hit_dirties () =
  let c = mk () in
  ignore (acc c 0x1000 : Cache.result);
  Alcotest.(check int) "clean after read" 0 (Cache.dirty_lines c);
  ignore (acc ~write:true c 0x1004 : Cache.result);
  Alcotest.(check int) "dirty after write hit" 1 (Cache.dirty_lines c)

let test_allocate_zero () =
  let c = mk () in
  (match Cache.allocate_zero c ~source:Cache.Kernel 0x3000 with
  | Cache.Miss { dirty_writeback } ->
      Alcotest.(check bool) "no write-back on empty set" false dirty_writeback
  | Cache.Hit | Cache.Bypass -> Alcotest.fail "expected allocation");
  Alcotest.(check bool) "line resident" true (Cache.contains c 0x3000);
  Alcotest.(check int) "line is dirty" 1 (Cache.dirty_lines c);
  Alcotest.(check bool) "second dcbz hits" true
    (Cache.allocate_zero c ~source:Cache.Kernel 0x3000 = Cache.Hit)

let test_locking () =
  let c = mk () in
  ignore (acc c 0x1000 : Cache.result);
  Cache.set_locked c true;
  Alcotest.(check bool) "locked hit still hits" true
    (acc c 0x1000 = Cache.Hit);
  Alcotest.(check bool) "locked miss bypasses" true
    (acc c 0x5000 = Cache.Bypass);
  Alcotest.(check bool) "locked dcbz bypasses" true
    (Cache.allocate_zero c ~source:Cache.Kernel 0x5000 = Cache.Bypass);
  Alcotest.(check int) "nothing allocated while locked" 1 (Cache.occupancy c);
  Cache.set_locked c false;
  Alcotest.(check bool) "unlocked allocates again" true
    (is_miss (acc c 0x5000))

let test_attribution () =
  let c = mk () in
  ignore (acc ~source:Cache.Htab c 0x3000 : Cache.result);
  ignore (acc ~source:Cache.Htab c 0x3020 : Cache.result);
  ignore (acc ~source:Cache.User c 0x4000 : Cache.result);
  Alcotest.(check int) "htab allocations" 2
    (Cache.stats_allocations c Cache.Htab);
  Alcotest.(check int) "user allocations" 1
    (Cache.stats_allocations c Cache.User);
  Alcotest.(check int) "no evictions yet" 0
    (Cache.stats_evictions_caused_by c Cache.Htab)

let test_eviction_attribution () =
  let c = mk () in
  let line i = i * 128 * 32 in
  for i = 0 to 3 do
    ignore (acc ~source:Cache.User c (line i) : Cache.result)
  done;
  ignore (acc ~source:Cache.Idle_clear c (line 4) : Cache.result);
  Alcotest.(check int) "idle-clear evicted a live line" 1
    (Cache.stats_evictions_caused_by c Cache.Idle_clear)

let test_invalidate_all () =
  let c = mk () in
  ignore (acc ~write:true c 0x1000 : Cache.result);
  ignore (acc c 0x2000 : Cache.result);
  Cache.invalidate_all c;
  Alcotest.(check int) "empty" 0 (Cache.occupancy c);
  Alcotest.(check int) "no dirt" 0 (Cache.dirty_lines c);
  Alcotest.(check bool) "misses again" true (is_miss (acc c 0x1000))

let test_geometry_validation () =
  match Cache.create ~bytes:(3 * 1024) ~ways:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* A miss returns one of two preallocated results: 1000 misses that all
   evict (half of them dirty lines) must not touch the minor heap. *)
let test_misses_allocate_nothing () =
  let c = mk () in
  let line i = i * 128 * 32 in
  let misses = ref 0 and writebacks = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    match
      Cache.access c ~source:Cache.User ~inhibited:false
        ~write:(i land 1 = 0) (line i)
    with
    | Cache.Miss { dirty_writeback } ->
        incr misses;
        if dirty_writeback then incr writebacks
    | Cache.Hit | Cache.Bypass -> ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every access missed" 1000 !misses;
  (* the LRU victim is the line stored four misses earlier: dirty for
     even i from 4 on *)
  Alcotest.(check int) "dirty victims written back" 498 !writebacks;
  Alcotest.(check (float 0.)) "minor words allocated" 0. words

let prop_occupancy_bounded =
  QCheck.Test.make ~name:"cache occupancy never exceeds capacity" ~count:50
    QCheck.(list_of_size (Gen.return 2000) (int_bound 0xFFFFF))
    (fun pas ->
      let c = Cache.create ~bytes:1024 ~ways:2 in
      List.iter (fun pa -> ignore (acc c pa : Cache.result)) pas;
      Cache.occupancy c <= Cache.capacity_lines c)

let prop_hit_after_access =
  QCheck.Test.make ~name:"an access leaves its line resident" ~count:500
    QCheck.(int_bound 0xFFFFFF)
    (fun pa ->
      let c = mk () in
      ignore (acc c pa : Cache.result);
      Cache.contains c pa)

let prop_dirty_bounded_by_occupancy =
  QCheck.Test.make ~name:"dirty lines <= valid lines" ~count:50
    QCheck.(list_of_size (Gen.return 500) (pair (int_bound 0xFFFF) bool))
    (fun ops ->
      let c = Cache.create ~bytes:1024 ~ways:2 in
      List.iter
        (fun (pa, write) -> ignore (acc ~write c pa : Cache.result))
        ops;
      Cache.dirty_lines c <= Cache.occupancy c)

let suite =
  [ Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "cache-inhibited bypass" `Quick test_bypass;
    Alcotest.test_case "LRU within a set" `Quick test_lru_within_set;
    Alcotest.test_case "write-back on dirty eviction" `Quick
      test_writeback_on_dirty_eviction;
    Alcotest.test_case "write hit dirties" `Quick test_write_hit_dirties;
    Alcotest.test_case "allocate_zero (dcbz)" `Quick test_allocate_zero;
    Alcotest.test_case "locking (§10.1)" `Quick test_locking;
    Alcotest.test_case "allocation attribution" `Quick test_attribution;
    Alcotest.test_case "eviction attribution" `Quick
      test_eviction_attribution;
    Alcotest.test_case "invalidate all" `Quick test_invalidate_all;
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "misses allocate nothing" `Quick
      test_misses_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_occupancy_bounded;
    QCheck_alcotest.to_alcotest prop_hit_after_access;
    QCheck_alcotest.to_alcotest prop_dirty_bounded_by_occupancy ]
