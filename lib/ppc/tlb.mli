(** Set-associative translation look-aside buffer.

    The 603 and 604 have split instruction/data TLBs, two-way set
    associative with LRU replacement (603: 32 sets x 2 = 64 entries per
    side; 604: 64 sets x 2 = 128 per side).  Entries are tagged with the
    full virtual page number, so they are tagged with the VSID: a context
    switch needs no TLB flush, and the lazy-flush trick of §7 works by
    retiring VSIDs instead of scrubbing entries.

    The module is purely structural; the MMU charges cycle and counter
    costs. *)

type t

type entry = {
  vpn : Addr.vpn;
  rpn : int;
  inhibited : bool;  (** cache-inhibited mapping (WIMG I-bit) *)
  writable : bool;
}

(** Victim selection when a set is full.  The real 603/604 use LRU; the
    alternatives exist so the replacement choice is a policy knob the
    tuner can price rather than a hardwired decision. *)
type replacement =
  | Lru   (** least-recently-used: hits refresh a per-slot stamp *)
  | Fifo  (** oldest insertion evicted; hits leave stamps untouched *)
  | Rand  (** deterministic xorshift pick among the set's ways *)

val replacement_name : replacement -> string
(** ["lru"], ["fifo"], ["random"]. *)

val create : ?replacement:replacement -> sets:int -> ways:int -> unit -> t
(** [create ~sets ~ways ()] builds an empty TLB.  [sets] must be a power
    of two.  [replacement] defaults to {!Lru}, the hardware's
    behavior. *)

val replacement : t -> replacement
(** The victim-selection policy this TLB was created with. *)

val sets : t -> int
val ways : t -> int

val capacity : t -> int
(** [sets * ways]. *)

val lookup : t -> Addr.vpn -> entry option
(** [lookup t vpn] searches the set selected by the low VPN bits and
    refreshes LRU state on a hit (under {!Lru} replacement). *)

val peek : t -> Addr.vpn -> entry option
(** [peek t vpn] is [lookup] without the LRU side effect — for probing and
    tests. *)

val insert : t -> entry -> unit
(** [insert t e] fills an invalid way of the set, or replaces the LRU
    way. *)

val insert_replacing : t -> entry -> entry option
(** [insert] that also reports the live entry it displaced, if any —
    [None] when an invalid way was filled or a same-VPN entry updated in
    place.  The trace layer turns the victim into a TLB-eviction event
    ("which task evicted whom"). *)

val invalidate_page : t -> Addr.vpn -> unit
(** [invalidate_page t vpn] drops the entry for [vpn] if present — the
    [tlbie] instruction. *)

val invalidate_all : t -> unit
(** Full flush ([tlbia]). *)

val occupancy : t -> int
(** Number of valid entries. *)

val count_matching : t -> (Addr.vpn -> bool) -> int
(** [count_matching t p] counts valid entries whose VPN satisfies [p] —
    used to measure the kernel's share of TLB slots (§5.1). *)

val iter : t -> (entry -> unit) -> unit
(** Iterate over valid entries. *)

(** {1 Flat interface}

    The store is parallel flat int arrays; these accessors expose it
    without building [entry] records or options, so the MMU's hit path
    allocates nothing.  A slot index is only meaningful until the next
    mutation of the TLB. *)

val lookup_slot : t -> Addr.vpn -> int
(** [lookup_slot t vpn] is {!lookup} returning the matching slot index,
    or [-1] on a miss.  Refreshes LRU state on a hit. *)

val peek_slot : t -> Addr.vpn -> int
(** [lookup_slot] without the LRU side effect. *)

val replay_hits : t -> int -> unit
(** [replay_hits t n] advances the replacement clock as [n]
    [lookup_slot] hits would (under [Lru] only), without stamping any
    slot.  Sound only when the hit slots are looked up again afterwards,
    so their stamps come out as the hits themselves would leave them. *)

val slot_vpn : t -> int -> Addr.vpn
val slot_rpn : t -> int -> int
val slot_inhibited : t -> int -> bool
val slot_writable : t -> int -> bool
(** Field reads of one (valid) slot returned by [lookup_slot]. *)

val insert_flat :
  t -> vpn:Addr.vpn -> rpn:int -> inhibited:bool -> writable:bool -> int
(** {!insert_replacing} without the option/record traffic: returns the
    VPN of the live entry it displaced, or [-1] when an invalid way was
    filled or a same-VPN entry updated in place.  Victim selection is
    identical to {!insert_replacing}. *)
