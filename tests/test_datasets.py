"""Tests for the synthetic multi-view multi-camera dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    CLASS_NAMES,
    DEFAULT_DEVICE_PROFILES,
    IMAGE_SIZE,
    NOT_PRESENT_LABEL,
    MVMCDataset,
    blank_view,
    class_distribution_per_device,
    generate_mvmc,
    load_mvmc_splits,
    render_view,
    sample_object,
)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_mvmc(40, seed=5)


class TestShapes:
    def test_sample_object_respects_class(self):
        rng = np.random.default_rng(0)
        for label, name in enumerate(CLASS_NAMES):
            instance = sample_object(label, rng)
            assert instance.label == label
            assert instance.class_name == name
            assert 0.0 < instance.size <= 1.0

    def test_render_view_shape_and_range(self):
        rng = np.random.default_rng(0)
        instance = sample_object(0, rng)
        image = render_view(instance, view_angle=0.3, rng=rng)
        assert image.shape == (3, IMAGE_SIZE, IMAGE_SIZE)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_different_view_angles_produce_different_images(self):
        rng = np.random.default_rng(0)
        instance = sample_object(1, rng)
        a = render_view(instance, 0.0, np.random.default_rng(1), noise_level=0.0)
        b = render_view(instance, np.pi / 2, np.random.default_rng(1), noise_level=0.0)
        assert not np.allclose(a, b)

    def test_blank_view_is_uniform_grey(self):
        image = blank_view()
        assert image.shape == (3, IMAGE_SIZE, IMAGE_SIZE)
        np.testing.assert_allclose(image, 0.5)

    def test_camera_quality_parameters_change_output(self):
        rng = np.random.default_rng(0)
        instance = sample_object(2, rng)
        clean = render_view(instance, 0.0, np.random.default_rng(3), noise_level=0.0, brightness=1.0)
        degraded = render_view(
            instance, 0.0, np.random.default_rng(3), noise_level=0.2, blur=1.0, brightness=0.6
        )
        assert np.abs(clean - degraded).mean() > 0.01


class TestGeneration:
    def test_shapes_and_alignment(self, small_dataset):
        assert small_dataset.images.shape == (40, 6, 3, IMAGE_SIZE, IMAGE_SIZE)
        assert small_dataset.labels.shape == (40,)
        assert small_dataset.device_labels.shape == (40, 6)
        assert small_dataset.num_devices == 6
        assert small_dataset.num_classes == len(CLASS_NAMES)
        assert small_dataset.image_shape == (3, IMAGE_SIZE, IMAGE_SIZE)

    def test_labels_are_valid_classes(self, small_dataset):
        assert set(np.unique(small_dataset.labels)).issubset(set(range(len(CLASS_NAMES))))

    def test_device_labels_match_sample_label_or_not_present(self, small_dataset):
        for index in range(len(small_dataset)):
            sample = small_dataset[index]
            for device_label in sample.device_labels:
                assert device_label in (NOT_PRESENT_LABEL, sample.label)

    def test_every_sample_visible_to_at_least_one_device(self, small_dataset):
        assert small_dataset.presence().any(axis=1).all()

    def test_absent_views_are_blank(self, small_dataset):
        presence = small_dataset.presence()
        absent = np.argwhere(~presence)
        assert len(absent) > 0
        sample_index, device_index = absent[0]
        view = small_dataset.images[sample_index, device_index]
        assert np.abs(view - 0.5).mean() < 0.05

    def test_determinism_by_seed(self):
        a = generate_mvmc(10, seed=3)
        b = generate_mvmc(10, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_changes_data(self):
        a = generate_mvmc(10, seed=3)
        b = generate_mvmc(10, seed=4)
        assert not np.array_equal(a.labels, b.labels) or not np.allclose(a.images, b.images)

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            generate_mvmc(0)


class TestDatasetOperations:
    def test_subset(self, small_dataset):
        subset = small_dataset.subset(np.array([0, 5, 7]))
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.labels, small_dataset.labels[[0, 5, 7]])

    def test_select_devices(self, small_dataset):
        selected = small_dataset.select_devices([5, 1])
        assert selected.num_devices == 2
        np.testing.assert_array_equal(selected.images[:, 0], small_dataset.images[:, 5])
        assert selected.profiles[0].name == DEFAULT_DEVICE_PROFILES[5].name

    def test_with_failed_devices_blanks_views_and_labels(self, small_dataset):
        degraded = small_dataset.with_failed_devices([2])
        assert (degraded.device_labels[:, 2] == NOT_PRESENT_LABEL).all()
        np.testing.assert_allclose(degraded.images[:, 2], 0.5)
        # Other devices untouched.
        np.testing.assert_array_equal(degraded.images[:, 0], small_dataset.images[:, 0])
        # Original is not modified in place.
        assert not (small_dataset.device_labels[:, 2] == NOT_PRESENT_LABEL).all()

    def test_device_views(self, small_dataset):
        views = small_dataset.device_views(3)
        assert views.shape == (40, 3, IMAGE_SIZE, IMAGE_SIZE)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MVMCDataset(np.zeros((2, 3, 3, 4, 4)), np.zeros(3), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            MVMCDataset(np.zeros((2, 3, 3, 4, 4)), np.zeros(2), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            MVMCDataset(np.zeros((2, 4, 4)), np.zeros(2), np.zeros((2, 4)))


class TestSplitsAndStats:
    def test_load_mvmc_splits_sizes(self):
        train, test = load_mvmc_splits(train_samples=50, test_samples=20, seed=1)
        assert len(train) == 50
        assert len(test) == 20
        assert train.num_devices == test.num_devices == 6

    def test_class_distribution_per_device(self, small_dataset):
        distribution = class_distribution_per_device(small_dataset)
        assert set(distribution) == set(CLASS_NAMES) | {"not-present"}
        totals = sum(distribution[key] for key in distribution)
        np.testing.assert_array_equal(totals, np.full(6, len(small_dataset)))

    def test_visibility_gradient_across_devices(self):
        """Devices later in the default profile list see more objects (Fig. 6)."""
        dataset = generate_mvmc(150, seed=0)
        present_counts = dataset.presence().sum(axis=0)
        assert present_counts[-1] > present_counts[0]

