(** Tests for the design-space exploration tasks: thread-count sweep,
    blocksize sweep, and the unroll-until-overmap loop of the paper's
    Fig. 2. *)

let omp_design () =
  Feat_fixtures.design ~target:Codegen.Design.Cpu_openmp ~device_id:"epyc7543"
    ()

let gpu_design device_id = Feat_fixtures.design ~device_id ()

let fpga_design device_id =
  Feat_fixtures.design ~target:Codegen.Design.Fpga_oneapi ~device_id ()

type cpu_step = Devices.Cpu_model.t Dse.Sweep.step
type gpu_step = Devices.Gpu_model.breakdown Dse.Sweep.step
type fpga_step = Devices.Fpga_model.resources Dse.Sweep.step

let threads_tests =
  [
    Alcotest.test_case "embarrassingly parallel picks max threads" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run threads) (omp_design ()) f in
        Alcotest.(check int) "32 threads" 32 r.chosen);
    Alcotest.test_case "chosen point is optimal over the sweep" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run threads) (omp_design ()) f in
        let best_seconds =
          List.fold_left (fun acc (s : cpu_step) ->
              Float.min acc s.model.t_parallel)
            infinity r.steps
        in
        let chosen =
          List.find
            (fun (s : cpu_step) -> s.knob = r.chosen)
            r.steps
        in
        Alcotest.(check (float 1e-12)) "optimal" best_seconds
          chosen.model.t_parallel);
    Alcotest.test_case "design knob updated" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run threads) (omp_design ()) f in
        Alcotest.(check int) "knob" 32 r.design.num_threads);
    Alcotest.test_case "sweep includes 1 and the core count" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run threads) (omp_design ()) f in
        let threads = List.map (fun (s : cpu_step) -> s.knob) r.steps in
        Alcotest.(check bool) "has 1" true (List.mem 1 threads);
        Alcotest.(check bool) "has 32" true (List.mem 32 threads));
  ]

let blocksize_tests =
  [
    Alcotest.test_case "chosen blocksize is optimal over the sweep" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run blocksize) (gpu_design "rtx2080ti") f in
        let feasible =
          List.filter (fun (s : gpu_step) -> s.model.feasible) r.steps
        in
        let best =
          List.fold_left (fun acc (s : gpu_step) ->
              Float.min acc s.model.total)
            infinity feasible
        in
        let chosen =
          List.find
            (fun (s : gpu_step) -> s.knob = r.chosen)
            r.steps
        in
        Alcotest.(check (float 1e-12)) "optimal" best chosen.model.total);
    Alcotest.test_case "register-heavy kernels avoid big blocks" `Quick
      (fun () ->
        let f = Feat_fixtures.make ~regs:255 () in
        let r = Dse.Sweep.(run blocksize) (gpu_design "rtx2080ti") f in
        (* 255 regs * 512 threads would blow the register file *)
        Alcotest.(check bool) "small block chosen" true
          (r.chosen <= 256));
    Alcotest.test_case "devices can choose different blocksizes" `Quick
      (fun () ->
        (* not asserting inequality (they may agree), asserting both valid *)
        let f = Feat_fixtures.make ~regs:128 () in
        let r1 = Dse.Sweep.(run blocksize) (gpu_design "gtx1080ti") f in
        let r2 = Dse.Sweep.(run blocksize) (gpu_design "rtx2080ti") f in
        Alcotest.(check bool) "1080 valid" true (r1.chosen >= 32);
        Alcotest.(check bool) "2080 valid" true (r2.chosen >= 32));
    Alcotest.test_case "sweep is bounded by the device maximum" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run blocksize) (gpu_design "rtx2080ti") f in
        List.iter
          (fun (s : gpu_step) ->
            Alcotest.(check bool) "<= 1024" true (s.knob <= 1024))
          r.steps);
  ]

let unroll_tests =
  [
    Alcotest.test_case "doubles until overmap and keeps the last fit" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run unroll) (fpga_design "stratix10") f in
        Alcotest.(check bool) "synthesizable" true r.design.synthesizable;
        (* last step overmapped, chosen factor is half of it *)
        let last : fpga_step = List.nth r.steps (List.length r.steps - 1) in
        Alcotest.(check bool) "stopped on overmap" true last.model.overmapped;
        Alcotest.(check int) "chosen is previous power of two"
          (last.knob / 2) r.chosen);
    Alcotest.test_case "factors double like Fig. 2" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run unroll) (fpga_design "stratix10") f in
        let factors = List.map (fun (s : fpga_step) -> s.knob) r.steps in
        let rec check_doubling = function
          | a :: b :: rest ->
              Alcotest.(check int) "doubles" (a * 2) b;
              check_doubling (b :: rest)
          | _ -> ()
        in
        check_doubling factors);
    Alcotest.test_case "bigger device sustains a bigger factor" `Quick
      (fun () ->
        let f = Feat_fixtures.make () in
        let ra = Dse.Sweep.(run unroll) (fpga_design "arria10") f in
        let rs = Dse.Sweep.(run unroll) (fpga_design "stratix10") f in
        Alcotest.(check bool) "S10 >= A10" true
          (rs.chosen >= ra.chosen));
    Alcotest.test_case "design annotated with chosen factor" `Quick (fun () ->
        let f = Feat_fixtures.make () in
        let r = Dse.Sweep.(run unroll) (fpga_design "stratix10") f in
        Alcotest.(check int) "knob" r.chosen r.design.unroll_factor);
    Alcotest.test_case "monster kernel is unsynthesizable" `Quick (fun () ->
        let f =
          Feat_fixtures.make ~locals:80
            ~ops_per_iter:(Feat_fixtures.ops ~exp_log:60.0 ~fdiv:30.0 ())
            ()
        in
        let r = Dse.Sweep.(run unroll) (fpga_design "arria10") f in
        Alcotest.(check bool) "not synthesizable" false
          r.design.synthesizable;
        Alcotest.(check bool) "factor 1 does not fit" false
          (List.hd r.steps).model.fits);
    Alcotest.test_case "90-100% single-pipeline design still ships" `Quick
      (fun () ->
        (* dense enough that u=1 is over 90% but under 100% on the A10 *)
        let f =
          Feat_fixtures.make ~locals:22
            ~ops_per_iter:
              (Feat_fixtures.ops ~fadd:380.0 ~fmul:320.0 ~fdiv:8.0
                 ~loads:120.0 ())
            ()
        in
        let r = Dse.Sweep.(run unroll) (fpga_design "arria10") f in
        let first : Devices.Fpga_model.resources = (List.hd r.steps).model in
        if first.overmapped && first.utilization <= 1.0 then (
          Alcotest.(check bool) "synthesizable at factor 1" true
            r.design.synthesizable;
          Alcotest.(check int) "factor 1" 1 r.chosen)
        else Alcotest.(check bool) "fixture should be 90-100%" false true);
  ]

(* A sweep-memo hit must rebuild from the incoming design exactly what
   the sweep itself returns, and both must equal the unmemoized sweep,
   field by field: [view] gives (design, chosen knob, steps, decision). *)
let memo_case name ~stage run view =
  Alcotest.test_case name `Quick (fun () ->
      let counter k =
        Flow_obs.Metrics.counter_value Flow_obs.Metrics.global
          (Printf.sprintf "memo_dse_%s_%s" stage k)
      in
      Dse.Sweep_memo.clear ();
      let h0 = counter "hits" and m0 = counter "misses" in
      let miss = view (run ()) in
      let hit = view (run ()) in
      Alcotest.(check int) "one miss" 1 (counter "misses" - m0);
      Alcotest.(check int) "one hit" 1 (counter "hits" - h0);
      Flow_memo.set_globally_enabled false;
      let off =
        Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
          (fun () -> view (run ()))
      in
      let (design' : Codegen.Design.t), knob', steps', decision' = miss in
      List.iter
        (fun (what, (design, knob, steps, decision)) ->
          Alcotest.(check bool) (what ^ ": design") true (design = design');
          Alcotest.(check string) (what ^ ": chosen knob") knob' knob;
          Alcotest.(check bool) (what ^ ": steps") true (steps = steps');
          Alcotest.(check bool) (what ^ ": decision") true (decision = decision'))
        [ ("hit", hit); ("memo off", off) ])

(* (design, chosen knob, steps, decision) of any sweep's result *)
let view (r : _ Dse.Sweep.result) =
  (r.design, string_of_int r.chosen, r.steps, r.decision)

let memo_tests =
  let f = Feat_fixtures.make () in
  (* one incoming design per case: every run sees the same statement ids *)
  let case name ~stage sweep d f =
    memo_case name ~stage (fun () -> Dse.Sweep.run sweep d f) view
  in
  let monster =
    Feat_fixtures.make ~locals:80
      ~ops_per_iter:(Feat_fixtures.ops ~exp_log:60.0 ~fdiv:30.0 ()) ()
  in
  [
    case "unroll hit == miss == memo off" ~stage:"unroll" Dse.Sweep.unroll
      (fpga_design "stratix10") f;
    case "unsynthesizable unroll hit == miss == memo off" ~stage:"unroll"
      Dse.Sweep.unroll (fpga_design "arria10") monster;
    case "blocksize hit == miss == memo off" ~stage:"blocksize"
      Dse.Sweep.blocksize (gpu_design "rtx2080ti") f;
    case "threads hit == miss == memo off" ~stage:"threads" Dse.Sweep.threads
      (omp_design ()) f;
  ]

let () =
  Alcotest.run "dse"
    [
      ("threads", threads_tests);
      ("blocksize", blocksize_tests);
      ("unroll", unroll_tests);
      ("memo", memo_tests);
    ]
