(** A parametric set-associative cache model with true-LRU replacement.

    Addresses are in words (one IR cell / one instruction per word).
    Used for both the instruction and the data cache of the simulated
    machine; the paper's Figure 7 reports access counts and miss rates
    from exactly such a pair of models. *)

type config = {
  sets : int;        (** number of sets (any positive count) *)
  assoc : int;       (** ways per set *)
  line_words : int;  (** words per line (any positive count) *)
}

(** Small defaults tuned so the mini-workloads exercise the caches the
    way SPEC binaries exercised the PA8000's: the instruction working
    sets of the benchmarks are a few thousand words, so a ~4K-word
    I-cache sees the post-inlining growth, and a ~8K-word D-cache sees
    the save/restore traffic. *)
let default_icache = { sets = 256; assoc = 2; line_words = 8 }
let default_dcache = { sets = 512; assoc = 2; line_words = 8 }

type t = {
  cfg : config;
  tags : int array;      (** [set * assoc + way] = tag, -1 empty *)
  last_use : int array;  (** [set * assoc + way] = LRU stamp, 0 empty *)
  line_shift : int;      (** log2 line_words, or -1 if not a power of two *)
  set_shift : int;       (** log2 sets, or -1 if not a power of two *)
  mutable last_line : int;  (** line of the previous access, -1 none *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let log2_exact n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  let k = go 0 in
  if 1 lsl k = n then k else -1

let create cfg =
  if cfg.sets <= 0 || cfg.assoc <= 0 || cfg.line_words <= 0 then
    invalid_arg "Cache.create: nonpositive geometry";
  { cfg;
    tags = Array.make (cfg.sets * cfg.assoc) (-1);
    last_use = Array.make (cfg.sets * cfg.assoc) 0;
    line_shift = log2_exact cfg.line_words;
    set_shift = log2_exact cfg.sets;
    last_line = -1; clock = 0; accesses = 0; misses = 0 }

let size_words t = t.cfg.sets * t.cfg.assoc * t.cfg.line_words

(* The set scan of an access that is not a repeat of the last line. *)
let lookup t line =
  t.clock <- t.clock + 1;
  t.last_line <- line;
  let pow2 = t.set_shift >= 0 in
  let set = if pow2 then line land (t.cfg.sets - 1) else line mod t.cfg.sets in
  let tag = if pow2 then line lsr t.set_shift else line / t.cfg.sets in
  let assoc = t.cfg.assoc in
  let base = set * assoc in
  let tags = t.tags and stamps = t.last_use in
  let w = ref 0 in
  while !w < assoc && Array.unsafe_get tags (base + !w) <> tag do incr w done;
  if !w < assoc then begin
    Array.unsafe_set stamps (base + !w) t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict the LRU way (empty ways have stamp 0 and lose). *)
    let victim = ref base in
    for i = base + 1 to base + assoc - 1 do
      if Array.unsafe_get stamps i < Array.unsafe_get stamps !victim then
        victim := i
    done;
    Array.unsafe_set tags !victim tag;
    Array.unsafe_set stamps !victim t.clock;
    false
  end

(** Access one word address (nonnegative); returns [true] on hit.

    A repeat access to the line touched last is a hit that leaves the
    stamps and the clock alone: that line already holds the newest
    stamp of its set, and the victim choice only compares stamps, so
    every later hit or miss is the same as with a full update. *)
let access t (addr : int) : bool =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  t.accesses <- t.accesses + 1;
  let line =
    if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.cfg.line_words
  in
  line = t.last_line || lookup t line

(** Credit [n] repeat accesses to the line touched last, as [n] calls
    of [access] on an address of that line would: each hits and
    changes nothing but the access count.  The simulator counts the
    instruction fetches that stay on the line it fetched last and
    credits them here when the run ends. *)
let add_repeats t n =
  if n < 0 then invalid_arg "Cache.add_repeats: negative count";
  if n > 0 && t.last_line < 0 then invalid_arg "Cache.add_repeats: no line touched";
  t.accesses <- t.accesses + n

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  t.last_line <- -1;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses
