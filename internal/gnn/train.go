package gnn

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"pprengine/internal/cluster"
	"pprengine/internal/core"
)

// ModelKind selects the architecture for the case study.
type ModelKind int

const (
	// ModelSAGE is the paper's ShaDow-SAGE setup (default).
	ModelSAGE ModelKind = iota
	// ModelGCN swaps in a two-layer GCN over the same PPR subgraphs.
	ModelGCN
	// ModelPPRGo uses PPR scores directly as propagation weights
	// (no message passing; paper §2 background).
	ModelPPRGo
)

// NewModel constructs the selected architecture.
func (k ModelKind) NewModel(inDim, hidden, classes int, seed int64) Model {
	switch k {
	case ModelGCN:
		return NewGCN(inDim, hidden, classes, seed)
	case ModelPPRGo:
		return NewPPRGo(inDim, hidden, classes, seed)
	default:
		return NewSAGE(inDim, hidden, classes, seed)
	}
}

// TrainConfig parameterizes the distributed training run of Figure 7.
type TrainConfig struct {
	Model         ModelKind
	Epochs        int
	BatchesPerEpc int // mini-batches per machine per epoch
	TopK          int // PPR subgraph size
	FeatureDim    int
	Hidden        int
	NumClasses    int
	LR            float64
	PPR           core.Config
	Seed          int64
}

// DefaultTrainConfig returns a small but non-trivial setup.
func DefaultTrainConfig() TrainConfig {
	ppr := core.DefaultConfig()
	ppr.Eps = 1e-4 // the paper notes eps=1e-4 suffices for GNN tasks (§4.2)
	return TrainConfig{
		Epochs:        3,
		BatchesPerEpc: 8,
		TopK:          32,
		FeatureDim:    32,
		Hidden:        32,
		NumClasses:    4,
		LR:            0.01,
		PPR:           ppr,
		Seed:          1,
	}
}

// EpochStats reports one epoch of distributed training.
type EpochStats struct {
	Epoch    int
	MeanLoss float32
	Accuracy float64 // ego-classification accuracy over the epoch's batches
}

// Setup attaches synthetic features to every cluster machine and returns
// per-machine allreduce endpoints (the hub lives on machine 0).
//
// With replication on, every replica server of shard s gets the same
// feature block as s's primary — a replica that serves a failover feature
// fetch must return bitwise-identical rows, or inference results would
// change across a primary kill.
func Setup(c *cluster.Cluster, cfg TrainConfig) ([]*AllreduceClient, error) {
	hub := NewAllreduceHub(c.Opts.NumMachines)
	hub.RegisterHandler(c.Servers[0].Handle)
	ends := make([]*AllreduceClient, c.Opts.NumMachines)
	featsOf := make([][]float32, len(c.Servers))
	for m := range c.Servers {
		feats := MakeFeatures(c.Shards[m], cfg.FeatureDim, cfg.NumClasses, cfg.Seed+int64(m))
		featsOf[m] = feats
		if err := c.Servers[m].AttachFeatures(cfg.FeatureDim, feats); err != nil {
			return nil, err
		}
		for _, st := range c.Storages[m] {
			st.AttachLocalFeatures(cfg.FeatureDim, feats)
		}
		if m == 0 {
			ends[m] = &AllreduceClient{Hub: hub}
		} else {
			// Reuse the first compute process's client to machine 0.
			ends[m] = &AllreduceClient{Client: c.Storages[m][0].Clients[0]}
		}
	}
	for _, machine := range c.ReplicaServers {
		for _, rs := range machine {
			if err := rs.AttachFeatures(cfg.FeatureDim, featsOf[rs.Shard.ShardID]); err != nil {
				return nil, err
			}
		}
	}
	return ends, nil
}

// TrainDistributed runs data-parallel ShaDow-SAGE training over the
// cluster: each machine trains on mini-batches of its own core vertices
// (one compute process per machine), builds subgraphs with the PPR engine,
// and synchronizes gradients through the allreduce hub every step. All
// replicas start from the same seed and apply identical averaged gradients,
// so they stay bit-identical — the DistributedDataParallel contract.
//
// ctx bounds the whole run: it is threaded into every PPR query and
// allreduce wait, so cancelling it stops training at the next batch
// boundary on every machine.
func TrainDistributed(ctx context.Context, c *cluster.Cluster, cfg TrainConfig) ([]EpochStats, Model, error) {
	ends, err := Setup(c, cfg)
	if err != nil {
		return nil, nil, err
	}
	world := c.Opts.NumMachines
	models := make([]Model, world)
	opts := make([]*Adam, world)
	for m := 0; m < world; m++ {
		models[m] = cfg.Model.NewModel(cfg.FeatureDim, cfg.Hidden, cfg.NumClasses, cfg.Seed)
		opts[m] = NewAdam(models[m].Params(), cfg.LR)
	}
	stats := make([]EpochStats, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var mu sync.Mutex
		var lossSum float64
		var correct, total int
		var firstErr error
		var wg sync.WaitGroup
		for m := 0; m < world; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch*1000+m)))
				st := c.Storages[m][0]
				model := models[m]
				for bi := 0; bi < cfg.BatchesPerEpc; bi++ {
					ego := int32(rng.Intn(c.Shards[m].NumCore()))
					q, _, err := core.RunSSPPR(ctx, st, ego, cfg.PPR, nil)
					if err == nil {
						var b *Batch
						b, err = ConvertBatch(ctx, st, q, ego, cfg.TopK, cfg.NumClasses)
						q.Release()
						if err == nil {
							loss, grads := model.Loss(b)
							flat := FlattenGrads(grads)
							mean, aerr := ends[m].SyncCtx(ctx, flat)
							if aerr != nil {
								err = aerr
							} else {
								opts[m].Step(model.Params(), UnflattenInto(mean, model.Params()))
								pred := model.Predict(b)
								mu.Lock()
								lossSum += float64(loss)
								total++
								if pred == b.EgoLabel {
									correct++
								}
								mu.Unlock()
							}
						}
					}
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("gnn: machine %d batch %d: %w", m, bi, err)
						}
						mu.Unlock()
						// Keep contributing zero gradients so peers don't
						// deadlock in the allreduce barrier.
						zero := make([]float32, models[m].NumParams())
						for rest := bi; rest < cfg.BatchesPerEpc; rest++ {
							ends[m].Sync(zero)
						}
						return
					}
				}
			}(m)
		}
		wg.Wait()
		if firstErr != nil {
			return stats, nil, firstErr
		}
		es := EpochStats{Epoch: epoch}
		if total > 0 {
			es.MeanLoss = float32(lossSum / float64(total))
			es.Accuracy = float64(correct) / float64(total)
		}
		stats = append(stats, es)
	}
	return stats, models[0], nil
}

// Evaluate measures ego-classification accuracy of a trained model on
// held-out vertices (drawn with a seed disjoint from training). The
// evaluation runs on machine 0's compute process; features must already be
// attached (Setup or TrainDistributed). ctx bounds the whole evaluation.
func Evaluate(ctx context.Context, c *cluster.Cluster, cfg TrainConfig, model Model, samples int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	st := c.Storages[0][0]
	correct := 0
	for i := 0; i < samples; i++ {
		ego := int32(rng.Intn(c.Shards[0].NumCore()))
		q, _, err := core.RunSSPPR(ctx, st, ego, cfg.PPR, nil)
		if err != nil {
			return 0, err
		}
		b, err := ConvertBatch(ctx, st, q, ego, cfg.TopK, cfg.NumClasses)
		q.Release()
		if err != nil {
			return 0, err
		}
		if model.Predict(b) == b.EgoLabel {
			correct++
		}
	}
	return float64(correct) / float64(samples), nil
}
