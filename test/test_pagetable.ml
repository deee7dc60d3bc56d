(* Linux two-level page tables. *)
open Ppc
module Physmem = Kernel_sim.Physmem
module Pagetable = Kernel_sim.Pagetable

let mk () =
  let pm = Physmem.create ~ram_bytes:(8 * 1024 * 1024) ~reserved_bytes:4096 in
  (Pagetable.create ~physmem:pm ~ctx_pa:0x80, pm)

let entry ?(writable = true) rpn =
  { Pagetable.rpn; writable; inhibited = false; shared = false; cow = false }

let test_map_find () =
  let pt, pm = mk () in
  Pagetable.map pt ~physmem:pm ~ea:0x01800123 (entry 0x42);
  (match Pagetable.find pt ~ea:0x01800FFF with
  | Some e -> Alcotest.(check int) "same page" 0x42 e.Pagetable.rpn
  | None -> Alcotest.fail "expected mapping");
  Alcotest.(check bool) "other page unmapped" true
    (Pagetable.find pt ~ea:0x01801000 = None)

let test_walk_refs () =
  let pt, pm = mk () in
  (* empty: walk touches ctx pointer + pgd entry = 2 loads *)
  let r, refs = Pagetable.walk pt ~ea:0x01800000 in
  Alcotest.(check bool) "unmapped" true (r = None);
  Alcotest.(check int) "2 loads when pgd empty" 2 (Array.length refs);
  Alcotest.(check int) "first load is the context" 0x80 refs.(0);
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x1);
  let r, refs = Pagetable.walk pt ~ea:0x01800000 in
  Alcotest.(check bool) "mapped" true (r <> None);
  Alcotest.(check int) "3 loads worst case" 3 (Array.length refs);
  (* the pgd entry and pte entry live in distinct frames *)
  Alcotest.(check bool) "distinct frames" true
    (Addr.rpn_of_pa refs.(1) <> Addr.rpn_of_pa refs.(2))

let test_unmap () =
  let pt, pm = mk () in
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x9);
  (match Pagetable.unmap pt ~ea:0x01800000 with
  | Some e -> Alcotest.(check int) "returned entry" 0x9 e.Pagetable.rpn
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "gone" true (Pagetable.find pt ~ea:0x01800000 = None);
  Alcotest.(check bool) "second unmap none" true
    (Pagetable.unmap pt ~ea:0x01800000 = None);
  Alcotest.(check int) "count zero" 0 (Pagetable.mapped_count pt)

let test_remap_updates () =
  let pt, pm = mk () in
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x1);
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x2);
  Alcotest.(check int) "count stays 1" 1 (Pagetable.mapped_count pt);
  match Pagetable.find pt ~ea:0x01800000 with
  | Some e -> Alcotest.(check int) "updated" 0x2 e.Pagetable.rpn
  | None -> Alcotest.fail "expected mapping"

let test_iter () =
  let pt, pm = mk () in
  let eas = [ 0x7FFFF000; 0x01801000; 0x40000000; 0x01800000 ] in
  List.iteri
    (fun i ea -> Pagetable.map pt ~physmem:pm ~ea (entry i))
    eas;
  let seen = ref [] in
  Pagetable.iter pt (fun ea _ -> seen := ea :: !seen);
  Alcotest.(check (list int)) "iter visits every page base, ascending"
    (List.sort compare eas) (List.rev !seen);
  (* the in-place drain: descending EA, each entry already unmapped when
     it is handed over, nothing left afterwards *)
  let drained = ref [] in
  Pagetable.drain pt (fun ea e ->
      Alcotest.(check bool) "unmapped before the callback" true
        (Pagetable.find pt ~ea = None);
      drained := (ea, e.Pagetable.rpn) :: !drained);
  Alcotest.(check (list (pair int int))) "drain visits descending EA"
    (List.sort (fun (a, _) (b, _) -> compare b a)
       (List.mapi (fun i ea -> (ea, i)) eas))
    (List.rev !drained);
  Alcotest.(check int) "nothing mapped after the drain" 0
    (Pagetable.mapped_count pt)

let visits = ref 0
let count_visit (_ : Addr.ea) (_ : Pagetable.entry) = incr visits

(* Drained pte pages stay allocated until [destroy]; [iter] must pass
   over them without a slot scan or a closure, so exit's walk of a
   drained tree costs nothing. *)
let test_iter_skips_emptied_pages () =
  let pt, pm = mk () in
  for i = 0 to 63 do
    Pagetable.map pt ~physmem:pm ~ea:(i lsl 22) (entry i)
  done;
  Pagetable.drain pt (fun _ _ -> ());
  let free = Physmem.free_frames pm in
  visits := 0;
  let before = Gc.minor_words () in
  Pagetable.iter pt count_visit;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "no entry visited" 0 !visits;
  Alcotest.(check (float 0.)) "minor words allocated" 0. words;
  Alcotest.(check int) "directory pages kept" free (Physmem.free_frames pm);
  (* a page refilled after the drain is visited again *)
  Pagetable.map pt ~physmem:pm ~ea:(5 lsl 22) (entry 5);
  Pagetable.iter pt count_visit;
  Alcotest.(check int) "refilled page visited" 1 !visits;
  Alcotest.(check int) "no new directory page" free (Physmem.free_frames pm)

let test_destroy_frees_frames () =
  let pt, pm = mk () in
  let before = Physmem.free_frames pm in
  Pagetable.map pt ~physmem:pm ~ea:0x01800000 (entry 0x1);
  Pagetable.map pt ~physmem:pm ~ea:0x40000000 (entry 0x2);
  Alcotest.(check bool) "directory frames consumed" true
    (Physmem.free_frames pm < before);
  Pagetable.destroy pt ~physmem:pm;
  (* +1: the pgd frame allocated at create is also released *)
  Alcotest.(check int) "all directory frames back" (before + 1)
    (Physmem.free_frames pm)

let test_out_of_frames () =
  let pm = Physmem.create ~ram_bytes:(2 * 4096) ~reserved_bytes:0 in
  let pt = Pagetable.create ~physmem:pm ~ctx_pa:0 in
  (* one frame left: first map consumes it for the pte page *)
  Pagetable.map pt ~physmem:pm ~ea:0 (entry 0x1);
  match Pagetable.map pt ~physmem:pm ~ea:0x00400000 (entry 0x2) with
  | exception Pagetable.Out_of_frames -> ()
  | () -> Alcotest.fail "expected Out_of_frames"

let prop_map_walk_agree =
  QCheck.Test.make ~name:"walk returns exactly what map installed" ~count:100
    QCheck.(
      list_of_size (Gen.return 30)
        (pair (int_bound 0xBFFFF) (int_bound 0xFFFFF)))
    (fun pairs ->
      let pt, pm = mk () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (epn, rpn) ->
          let ea = epn lsl Addr.page_shift in
          Pagetable.map pt ~physmem:pm ~ea (entry rpn);
          Hashtbl.replace model epn rpn)
        pairs;
      Hashtbl.fold
        (fun epn rpn ok ->
          ok
          &&
          match Pagetable.walk pt ~ea:(epn lsl Addr.page_shift) with
          | Some e, _ -> e.Pagetable.rpn = rpn
          | None, _ -> false)
        model true)

let suite =
  [ Alcotest.test_case "map/find" `Quick test_map_find;
    Alcotest.test_case "walk reference addresses" `Quick test_walk_refs;
    Alcotest.test_case "unmap" `Quick test_unmap;
    Alcotest.test_case "remap updates in place" `Quick test_remap_updates;
    Alcotest.test_case "iter" `Quick test_iter;
    Alcotest.test_case "iter skips emptied pte pages" `Quick
      test_iter_skips_emptied_pages;
    Alcotest.test_case "destroy frees directory frames" `Quick
      test_destroy_frees_frames;
    Alcotest.test_case "out of frames" `Quick test_out_of_frames;
    QCheck_alcotest.to_alcotest prop_map_walk_agree ]
