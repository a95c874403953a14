(* Sample vectors and the summary statistics the benchmark reports. *)

(* Growable float vector: the per-transaction samples of a run. *)
type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 64 0.; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0. in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

(* Linear interpolation between order statistics (numpy's default), so a
   percentile of integer tick samples still moves with the distribution
   instead of sticking to one integer. [nan] when empty. *)
let percentile (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let median xs = percentile xs 50.

(* [a / b], or 0 when the base is empty: a layer the workload leaves idle
   reads 0 per transaction. *)
let ratio a b = if b = 0. then 0. else a /. b

(* A percentile over no samples (an idle layer) is reported as 0. *)
let or_zero x = if Float.is_nan x then 0. else x
