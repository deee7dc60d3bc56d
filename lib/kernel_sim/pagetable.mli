(** The Linux two-level page tables.

    The "machine independent" Linux core mandates x86-style page tables:
    a page global directory (pgd) of 1024 entries, each covering 4 MB via
    a page of 1024 four-byte PTEs.  On Linux/PPC this tree is the
    authoritative source of translations and the hashed page table is
    merely a cache of it (§8) — which is why the 603 can skip the htab
    entirely and walk this tree in its TLB-miss handler: "searching for a
    PTE in the tree can be done conveniently ... taking three loads in the
    worst case" (§6.1).  The three loads are: the pgd pointer in the
    context structure, the pgd entry, and the PTE itself; [walk] reports
    their physical addresses so the MMU charges them through the cache.

    Directory pages live in real physical frames taken from {!Physmem},
    so walks touch genuinely distinct cache lines, as on hardware. *)

open Ppc

exception Out_of_frames
(** Raised when a directory page cannot be allocated. *)

type entry = {
  rpn : int;           (** physical frame *)
  writable : bool;
  inhibited : bool;    (** cache-inhibited mapping *)
  shared : bool;       (** frame owned elsewhere (page cache, device
                           aperture): never freed with the address space *)
  cow : bool;          (** copy-on-write: mapped read-only and possibly
                           referenced by several address spaces; a store
                           breaks the sharing *)
}

type t

val create : physmem:Physmem.t -> ctx_pa:Addr.pa -> t
(** [create ~physmem ~ctx_pa] allocates the pgd frame.  [ctx_pa] is the
    physical address of the context structure holding the pgd pointer —
    the first load of every walk. *)

val pgd_rpn : t -> int

val map :
  t -> physmem:Physmem.t -> ea:Addr.ea -> entry -> unit
(** [map t ~physmem ~ea e] installs a translation for the page containing
    [ea], allocating the PTE page on demand.
    @raise Out_of_frames when a directory frame cannot be allocated. *)

val unmap : t -> ea:Addr.ea -> entry option
(** [unmap t ~ea] removes and returns the translation, if any. *)

val find : t -> ea:Addr.ea -> entry option
(** Side-effect-free lookup (no reference reporting). *)

val walk : t -> ea:Addr.ea -> entry option * Addr.pa array
(** [walk t ~ea] is the hardware-visible walk: the result plus the
    physical addresses of the loads performed (2 when the pgd entry is
    empty, 3 otherwise). *)

val mapped_count : t -> int
(** Number of installed translations. *)

val iter : t -> (Addr.ea -> entry -> unit) -> unit
(** [iter t f] calls [f] on every mapping (page-aligned EA), in
    ascending EA order.  PTE pages with no live slot are skipped without
    a scan. *)

val drain : t -> (Addr.ea -> entry -> unit) -> unit
(** [drain t f] unmaps every translation in place, in descending EA
    order, calling [f] on each one right after removing it; afterwards
    [mapped_count t = 0].  The directory pages stay until {!destroy}.
    [f] must not map into [t]. *)

val destroy : t -> physmem:Physmem.t -> unit
(** Free every directory frame.  The mapped data frames themselves are
    the caller's to release. *)
