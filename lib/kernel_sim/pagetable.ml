open Ppc

exception Out_of_frames

type entry = {
  rpn : int;
  writable : bool;
  inhibited : bool;
  shared : bool;
  cow : bool;
}

type pte_page = {
  frame : int;                   (* physical frame holding this table *)
  slots : entry option array;    (* 1024 PTEs *)
  mutable live : int;            (* occupied slots *)
}

type t = {
  ctx_pa : Addr.pa;
  pgd_frame : int;
  pgd : pte_page option array;   (* 1024 pgd slots *)
  mutable mapped : int;
}

let entries_per_table = 1024
let pte_entry_bytes = 4

let pgd_index ea = (ea lsr 22) land 0x3FF
let pte_index ea = (ea lsr Addr.page_shift) land 0x3FF

let alloc_frame physmem =
  match Physmem.alloc physmem with
  | Some rpn -> rpn
  | None -> raise Out_of_frames

let create ~physmem ~ctx_pa =
  { ctx_pa;
    pgd_frame = alloc_frame physmem;
    pgd = Array.make entries_per_table None;
    mapped = 0 }

let pgd_rpn t = t.pgd_frame

let pgd_entry_pa t ea =
  (t.pgd_frame lsl Addr.page_shift) + (pgd_index ea * pte_entry_bytes)

let pte_entry_pa page ea =
  (page.frame lsl Addr.page_shift) + (pte_index ea * pte_entry_bytes)

let map t ~physmem ~ea entry =
  let i = pgd_index ea in
  let page =
    match t.pgd.(i) with
    | Some page -> page
    | None ->
        let page =
          { frame = alloc_frame physmem;
            slots = Array.make entries_per_table None;
            live = 0 }
        in
        t.pgd.(i) <- Some page;
        page
  in
  let j = pte_index ea in
  (match page.slots.(j) with
  | None ->
      page.live <- page.live + 1;
      t.mapped <- t.mapped + 1
  | Some _ -> ());
  page.slots.(j) <- Some entry

let unmap t ~ea =
  let i = pgd_index ea in
  match t.pgd.(i) with
  | None -> None
  | Some page -> begin
      let j = pte_index ea in
      match page.slots.(j) with
      | None -> None
      | Some _ as old ->
          page.slots.(j) <- None;
          page.live <- page.live - 1;
          t.mapped <- t.mapped - 1;
          old
    end

let find t ~ea =
  match t.pgd.(pgd_index ea) with
  | None -> None
  | Some page -> page.slots.(pte_index ea)

let walk t ~ea =
  match t.pgd.(pgd_index ea) with
  | None -> (None, [| t.ctx_pa; pgd_entry_pa t ea |])
  | Some page ->
      ( page.slots.(pte_index ea),
        [| t.ctx_pa; pgd_entry_pa t ea; pte_entry_pa page ea |] )

let mapped_count t = t.mapped

let ea_of i j = (i lsl 22) lor (j lsl Addr.page_shift)

(* Plain loops, so a walk allocates no closure, and pte pages with no
   live slot are skipped whole: an address space's tree keeps its
   emptied pages until [destroy], and exit walks it once more after the
   drain. *)
let iter t f =
  for i = 0 to entries_per_table - 1 do
    match t.pgd.(i) with
    | Some page when page.live > 0 ->
        let slots = page.slots in
        for j = 0 to entries_per_table - 1 do
          match slots.(j) with
          | None -> ()
          | Some e -> f (ea_of i j) e
        done
    | Some _ | None -> ()
  done

let drain t f =
  for i = entries_per_table - 1 downto 0 do
    match t.pgd.(i) with
    | Some page when page.live > 0 ->
        let slots = page.slots in
        for j = entries_per_table - 1 downto 0 do
          match slots.(j) with
          | None -> ()
          | Some e ->
              slots.(j) <- None;
              page.live <- page.live - 1;
              t.mapped <- t.mapped - 1;
              f (ea_of i j) e
        done
    | Some _ | None -> ()
  done

let destroy t ~physmem =
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some page ->
          Physmem.free physmem page.frame;
          t.pgd.(i) <- None)
    t.pgd;
  Physmem.free physmem t.pgd_frame;
  t.mapped <- 0
