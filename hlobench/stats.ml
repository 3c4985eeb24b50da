(* Summaries of repeated measurements. *)

let sorted xs = List.sort Float.compare xs

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so that spreads computed here and by
   an outside script over the same samples agree.  The middle value is
   the median. *)
let quartiles xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio num den = if den = 0.0 then 0.0 else num /. den
